"""pcpolar benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload sweep-long-scan --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout; pcpolar is imported from that
checkout's src/. With --trace 0 the run is untraced and reports the
end-to-end metrics; with --trace 1 it records spans around every layer
boundary and reports the per-layer metrics. Every simulate command and
every decode call is checked. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The
simulate artifacts, spans.jsonl and report.json go to
.bench_out/<workload>-seed<seed>-trace<trace>/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import coldstart
from checks import check_pool, check_sweep, read_counts, same_result
from tracing import Tracer, instrument
from workloads import WORKLOADS, make_frames, master_seed, sim_config

MIN_PASSES = 3  # simulate commands per untraced sweep run, however short --seconds is
MIN_SAMPLES = 1000  # single-frame decodes, so that p99 has ten samples beyond it
SETUP_PROBES = 8  # cold set-ups in fresh processes, besides the run's own
TRACED_SETUPS = 5
BLOCK = 100  # closed-loop calls per untraced or traced block
PROBE_CALLS = 50
LAYER_DECODERS = ("sc", "csr-scan", "pc-scan")
CHUNK = 1000  # the simulator's default batch_frames
# span names whose self times, summed, should account for a traced simulate command
ACCOUNTED = (
    "cli.simulate",
    "sim.run_cell",
    "construction.build_code",
    "encoder.encode",
    "channel.modulate_bpsk",
    "channel.channel_llrs",
) + tuple(f"decoders.{k}.decode" for k in ("sc", "scan", "csr-scan", "pc-scan"))


@dataclass
class SimPass:
    wall: float
    counts: dict
    busy: float  # worker seconds: the CSV `seconds`, once per (decoder, SNR)
    problems: list = field(default_factory=list)


class Run:
    def __init__(self, w, seed: int, seconds: int, setup, out):
        self.w, self.seconds, self.st, self.out = w, seconds, setup, out
        self.master_seed = master_seed(w.name, seed)
        self.cfg_path = out / "config.json"
        self.tracer = Tracer()
        self.metrics: dict = {}
        self.notes: dict = {}
        self.samples: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.frames_per_pass = len(w.decoders) * len(w.snr_points) * w.frames

    # -- bookkeeping

    def record(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}
        self.notes[name] = note

    def operation(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: " + "; ".join(problems))

    def repeat(self, step, minimum: int) -> list:
        """Call step(i) until --seconds have passed and it ran at least `minimum` times."""
        results = []
        end = time.perf_counter() + self.seconds
        while len(results) < minimum or time.perf_counter() < end:
            results.append(step(len(results)))
        return results

    # -- calls into the program

    def simulate(self, tag: str, workers: int | None = None, traced: bool = False) -> SimPass:
        argv = ["simulate", "--config", str(self.cfg_path), "--out", str(self.out / tag)]
        argv += ["--decoders", ",".join(self.w.decoders)]
        if workers is not None:
            argv += ["--workers", str(workers)]
        if traced:
            with instrument(self.tracer), self.tracer.span("cli.simulate") as s:
                rc = self.st.cli.main(argv)
            wall = s.seconds
        else:
            t0 = time.perf_counter()
            rc = self.st.cli.main(argv)
            wall = time.perf_counter() - t0
        if rc != 0:
            return SimPass(wall, {}, 0.0, [f"pcpolar simulate exited with {rc}"])
        counts, seconds = read_counts(self.out / f"{tag}.csv")
        return SimPass(wall, counts, sum(seconds.values()))

    def check_sweeps(self, reference: SimPass, others: list[SimPass]) -> None:
        w = self.w
        self.operation(reference.problems + check_sweep(w, reference.counts, w.frames), "traced workers=1 simulate")
        for i, p in enumerate(others):
            self.operation(p.problems + check_sweep(w, p.counts, w.frames, reference.counts), f"simulate #{i}")

    def frames(self, lo: int, hi: int):
        st = self.st
        return make_frames(st.pp, st.spec, st.rolemap, st.pcs, self.master_seed, self.w.snr_points[0], lo, hi)

    def decode(self, dec, kind: str, llrs):
        return dec.decode(llrs) if kind == "sc" else dec.decode(llrs, self.w.t_max)

    def time_frame_rng(self, n: int) -> None:
        """pcpolar.frame_rng over frame indices [0, n) with the simulator's K-int and N-normal draws."""
        import numpy as np

        frame_rng, seed = self.st.pp.frame_rng, self.master_seed
        K, N = self.st.spec.K, self.st.spec.N
        with self.tracer.span("channel.frame_rng", frames=n):
            for f in range(n):
                g = frame_rng(seed, f)
                g.integers(0, 2, K, dtype=np.uint8)
                g.standard_normal(N)

    def probe_decoders(self, batches) -> None:
        """Decode with each layer kind the workload does not use, in its call shape."""
        st = self.st
        cfg = st.cli.load_config(str(self.cfg_path))
        self.tracer.run = "probe"
        for kind in LAYER_DECODERS:
            if kind in self.w.decoders:
                continue
            dec = coldstart.make_decoder(st.pp, st.cli.resolve_decoder(cfg, kind=kind), st.rolemap, st.pcs)
            with instrument(self.tracer):
                for llrs in batches:
                    self.decode(dec, kind, llrs)

    # -- untraced runs: end-to-end metrics

    def setup_metric(self, own_setup: float) -> None:
        cmd = [sys.executable, coldstart.__file__, str(self.cfg_path), ",".join(self.w.decoders)]
        samples = [own_setup]
        for _ in range(SETUP_PROBES):
            done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
            samples.append(float(done.stdout.split()[-1]))
        self.samples["setup_s"] = samples
        self.record("setup_s", statistics.median(samples), "s", f"median of {len(samples)} cold set-ups, 1 in-process")

    def latency(self, samples_s: list[float], what: str) -> None:
        ms = [s * 1e3 for s in samples_s]
        note = f"{what}, n={len(ms)}"
        self.samples["decode_ms"] = ms
        self.record("decode_p50_ms", statistics.median(ms), "ms", note)
        self.record("decode_p99_ms", statistics.quantiles(ms, n=100, method="inclusive")[98], "ms", note)

    def sweep_untraced(self) -> None:
        passes = self.repeat(lambda i: self.simulate("untraced"), MIN_PASSES)
        self.tracer.run = "check"
        self.check_sweeps(self.simulate("traced-w1", workers=1, traced=True), passes)
        rates = [self.frames_per_pass / p.wall for p in passes]
        self.record(
            "sim_frames_per_s", statistics.median(rates), "1/s",
            f"median of {len(passes)} simulate commands, {self.frames_per_pass} frames each",
        )
        self.latency([p.wall for p in passes], "wall time of one simulate command")

    def single_untraced(self) -> None:
        kind = self.w.decoders[0]
        dec = self.st.decoders[kind]
        msgs, llrs, batch = self.pool(dec, kind)

        def step(i):
            j = i % len(llrs)
            t0 = time.perf_counter()
            res = self.decode(dec, kind, llrs[j])
            dt = time.perf_counter() - t0
            self.operation([] if same_result(res, batch, j) else ["differs from the batch decode"], f"decode #{i}")
            return dt

        lat = self.repeat(step, MIN_SAMPLES)
        self.check_pool(self.simulate("pool"), msgs, batch)
        self.record("sim_frames_per_s", len(lat) / sum(lat), "1/s", f"{len(lat)} single-frame decodes, one caller")
        self.latency(lat, "one single-frame decode call")

    def pool(self, dec, kind):
        msgs, llrs = self.frames(0, self.w.frames)
        return msgs, llrs, self.decode(dec, kind, llrs)

    def check_pool(self, p: SimPass, msgs, batch) -> None:
        self.operation(p.problems + check_pool(self.w, p.counts, msgs, batch), "simulate over the frame pool")

    # -- traced runs: per-layer metrics

    def traced_setups(self) -> None:
        for i in range(TRACED_SETUPS):
            self.tracer.run = f"setup{i}"
            with instrument(self.tracer):
                coldstart.cold_setup(self.cfg_path, self.w.decoders)

    def sweep_traced(self) -> None:
        w = self.w

        def round_(i):
            untraced = self.simulate("untraced")
            untraced_w1 = self.simulate("untraced-w1", workers=1) if w.workers > 1 else untraced
            self.tracer.run = f"pass{i}"
            traced = self.simulate("traced-w1", workers=1, traced=True)
            self.tracer.run = f"rng{i}"
            self.time_frame_rng(w.frames)
            self.check_sweeps(traced, [untraced] + ([untraced_w1] if w.workers > 1 else []))
            return untraced, untraced_w1, traced

        rounds = self.repeat(round_, 1)
        self.probe_decoders([self.frames(0, min(w.frames, CHUNK))[1]])
        untraced, untraced_w1, traced = zip(*rounds)
        overhead = statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in untraced_w1) - 1
        self.layer_metrics(("pass",), ("pass",), len(rounds) * self.frames_per_pass, untraced, overhead)

    def single_traced(self) -> None:
        kind = self.w.decoders[0]
        dec = self.st.decoders[kind]
        msgs, llrs, batch = self.pool(dec, kind)
        plain, traced = [], []

        def block(i):
            for on, lat in ((False, plain), (True, traced)):
                self.tracer.run = f"loop{i}"
                with instrument(self.tracer) if on else nullcontext():
                    for _ in range(BLOCK):
                        j = (len(plain) + len(traced)) % len(llrs)
                        t0 = time.perf_counter()
                        res = self.decode(dec, kind, llrs[j])
                        lat.append(time.perf_counter() - t0)
                        self.operation([] if same_result(res, batch, j) else ["differs from the batch decode"], f"decode #{j}")

        self.repeat(block, 1)
        sweeps = []
        for i in range(3):
            sweeps.append(self.simulate("pool"))
            self.tracer.run = f"pool{i}"
            sweeps.append(self.simulate("pool-traced", traced=True))
            self.tracer.run = f"rng{i}"
            self.time_frame_rng(self.w.frames)
        for p in sweeps:
            self.check_pool(p, msgs, batch)
        self.probe_decoders(llrs[:PROBE_CALLS])
        overhead = statistics.median(traced) / statistics.median(plain) - 1
        self.layer_metrics(("loop",), ("pool",), 3 * self.frames_per_pass, sweeps[0::2], overhead)

    def layer_metrics(self, decode_runs, sim_runs, sim_frames: int, untraced, overhead: float) -> None:
        T, w, st = self.tracer, self.w, self.st

        def seconds_and_frames(name, runs):
            idx = T.select(name, runs)
            return sum(T.spans[i].seconds for i in idx), sum(T.spans[i].frames or 0 for i in idx), len(idx)

        build = [T.spans[i].seconds * 1e3 for i in T.select("construction.build_code", ("setup",))]
        self.record("construction.build_code_ms", statistics.median(build), "ms", f"median of {len(build)} traced set-ups")
        secs, frames, _ = seconds_and_frames("channel.frame_rng", ("rng",))
        self.record("channel.frame_rng_ms_per_kframe", secs / frames * 1e6, "ms/kframe", f"{frames} frames")
        llr = seconds_and_frames("channel.modulate_bpsk", sim_runs)[0] + seconds_and_frames("channel.channel_llrs", sim_runs)[0]
        per_k = f"per 1000 of {sim_frames} traced simulate frames"
        self.record("channel.llr_ms_per_kframe", llr / sim_frames * 1e6, "ms/kframe", per_k)
        enc = seconds_and_frames("encoder.encode", sim_runs)[0]
        self.record("encoder.encode_ms_per_kframe", enc / sim_frames * 1e6, "ms/kframe", per_k)

        N = st.spec.N
        for kind in LAYER_DECODERS:
            runs = decode_runs if kind in w.decoders else ("probe",)
            secs, frames, calls = seconds_and_frames(f"decoders.{kind}.decode", runs)
            where = "the workload's decode calls" if kind in w.decoders else "a probe in the workload's call shape"
            self.record(f"decoders.{kind}.ms_per_kframe", secs / frames * 1e6, "ms/kframe", f"{frames} frames, {where}")
            self.record(f"decoders.{kind}.calls", calls, "count", where)
            melem = frames * w.iterations(kind) * N * st.spec.n / secs / 1e6
            self.record(f"decoders.{kind}.melem_per_s", melem, "Melem/s", "computed: frames x iterations x N log2 N / decode s")

        sim_self = sum(T.self_seconds(i) for i in T.select("sim.run_cell", sim_runs))
        self.record("sim.self_ms_per_kframe", sim_self / sim_frames * 1e6, "ms/kframe", "run_cell minus its child spans, " + per_k)
        busy = [p.busy for p in untraced]
        eff = [p.busy / (w.workers * p.wall) for p in untraced]
        note = f"median of {len(untraced)} untraced simulate commands, workers={w.workers}"
        self.record("sim.worker_busy_s", statistics.median(busy), "s", note)
        self.record("sim.pool_efficiency", statistics.median(eff), "ratio", note + "; busy / (workers x command wall)")

        roots = T.select("cli.simulate", sim_runs)
        cli_self = [T.self_seconds(i) * 1e3 for i in roots]
        self.record("cli.self_ms", statistics.median(cli_self), "ms", f"simulate minus its sweep spans, median of {len(roots)}")
        accounted = []
        for r in roots:
            inside = [i for i, s in enumerate(T.spans) if s.run == T.spans[r].run and s.name in ACCOUNTED]
            accounted.append(sum(T.self_seconds(i) for i in inside) / T.spans[r].seconds)
        self.record("trace.accounted_frac", statistics.median(accounted), "ratio", "layer self times / traced simulate wall")
        self.record("trace.overhead_frac", overhead, "ratio", "traced / untraced median wall - 1, workers=1")


def peak_rss_mb() -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def parse_args(argv):
    p = argparse.ArgumentParser(description="pcpolar benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not coldstart.have_source():
        print(f"error: no pcpolar source under {coldstart.SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    out = coldstart.ROOT / ".bench_out" / f"{w.name}-seed{args.seed}-trace{args.trace}"
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(sim_config(w, args.seed), indent=2))

    coldstart.use_checkout_source()
    own_setup, setup = coldstart.cold_setup(out / "config.json", w.decoders)
    run = Run(w, args.seed, args.seconds, setup, out)
    if args.trace:
        run.traced_setups()
        run.single_traced() if w.closed_loop else run.sweep_traced()
    else:
        run.single_untraced() if w.closed_loop else run.sweep_untraced()
        run.setup_metric(own_setup)
        run.record("peak_rss_mb", peak_rss_mb(), "MB", "ru_maxrss of the run plus its largest child")

    run.tracer.dump(out / "spans.jsonl")
    report = {
        "workload": w.name,
        "seed": args.seed,
        "trace": args.trace,
        "metrics": run.metrics,
        "notes": run.notes,
        "problems": run.problems,
        "samples": run.samples,
    }
    (out / "report.json").write_text(json.dumps(report, indent=2))
    print(f"{w.name} seed={args.seed} trace={args.trace} seconds={args.seconds}")
    for name, m in run.metrics.items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']:<10} {run.notes[name]}")
    print(f"  {'failed_frac':<34} {run.failed / run.attempted:>14.6g} {'ratio':<10} {run.failed} of {run.attempted} checked operations")
    for line in run.problems[:20]:
        print(f"  FAILED {line}")
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed, "metrics": run.metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
