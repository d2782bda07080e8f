#!/usr/bin/env python3
"""The repository benchmark: one workload by name, with a seed.

    python3 perfbench/run.py --workload pagerank-batch --seed 1 \\
        --seconds 20 --trace 0

Builds the library, the serving daemon and the measuring tool from source
(CMake, into $CARGO_TARGET_DIR or .bench_build), generates the inputs from
the seed, runs the workload, checks its outputs, and prints one JSON
object as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"<name>": {"value": x, "unit": "<unit>"}, ...}}

--trace 0 reports the end-to-end metrics; --trace 1 records spans around
every call into the program, writes them as a Chrome trace under the
build directory, prints the self time per layer, and reports the
per-layer metrics. Metrics, workloads and layers are described in
perfbench/README.md. Exits non-zero, without a result, when the sources
are missing, and with correct=false when an output is wrong."""

import argparse
import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # write nothing into the source tree

import serve  # noqa: E402
import stats  # noqa: E402

# Batch workloads: snapshots per round, and the seconds one round took on
# the 4-core development host while it was busy (sets the number of rounds
# from --seconds; a quiet host runs them in about 60% of that).
BATCH = {
    "pagerank-batch": {"snapshots": 4, "round_s": 3.3},
    "triangles-batch": {"snapshots": 30, "round_s": 4.2},
}
WORKLOADS = list(BATCH) + ["serve-wcc"]
THREADS = 4  # engine worker threads, as in perfbench/tool.cc

END_TO_END = [
    ("setup_s", "s"),
    ("oneshot_s", "s"),
    ("incremental_s", "s"),
    ("notify_p50_ms", "ms"),
    ("max_bps", "1/s"),
    ("disk_mb_per_batch", "MB"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("compiler.compile_ms", "ms"),
    ("storage.create_s", "s"),
    ("storage.apply_ms", "ms"),
    ("storage.oneshot_write_mb", "MB"),
    ("storage.write_mb_per_snapshot", "MB"),
    ("storage.read_mb_per_snapshot", "MB"),
    ("storage.pool_hit_rate", "ratio"),
    ("storage.page_reads", "count"),
    ("engine.walk_s", "s"),
    ("engine.update_s", "s"),
    ("engine.oneshot_edges", "count"),
    ("engine.oneshot_evals", "count"),
    ("engine.edges_per_s", "1/s"),
    ("engine.inc_edges", "count"),
    ("engine.inc_emissions", "count"),
    ("engine.inc_update_s", "s"),
    ("engine.inc_work_ratio", "ratio"),
    ("engine.walks_pruned", "count"),
    ("engine.oneshot_1t_s", "s"),
    ("engine.scaling", "ratio"),
    ("pool.util", "ratio"),
    ("pool.busy_s", "s"),
    ("pool.steals", "count"),
    ("serve.register_s", "s"),
    ("serve.ingest_ack_ms_p50", "ms"),
    ("serve.validate_us_p50", "us"),
    ("serve.apply_us_p50", "us"),
    ("serve.flush_us_p50", "us"),
    ("serve.view_run_us_p50", "us"),
    ("serve.view_run_us_p99", "us"),
    ("serve.view_cpu_ms_per_batch", "ms"),
    ("serve.queue_wait_us_p99", "us"),
    ("serve.queue_depth_max", "count"),
    ("serve.backpressure_stalls", "count"),
    ("serve.delta_cell_ratio", "ratio"),
    ("serve.write_mb_per_batch", "MB"),
    ("load.late_ms_p90", "ms"),
    ("load.achieved_bps", "1/s"),
    ("load.offered_bps", "1/s"),
    ("load.samples", "count"),
    ("load.notify_p90_ms", "ms"),
    ("baselines.graphbolt_oneshot_s", "s"),
    ("baselines.graphbolt_incremental_s", "s"),
    ("self.bench_s", "s"),
    ("self.compiler_s", "s"),
    ("self.storage_s", "s"),
    ("self.engine_s", "s"),
    ("self.serve_s", "s"),
    ("self.load_s", "s"),
    ("self.baselines_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.unaccounted_pct", "%"),
]
LAYERS = ["bench", "compiler", "storage", "engine", "serve", "load", "baselines"]

MIN_FREE_BYTES = {"batch": 1 << 30, "serve": 4 << 30}


class Tracer:
    """Spans of this process, kept in memory and written at exit as a
    Chrome trace. Regions are always timed; they are recorded only when
    tracing is on. Batches in flight during a serving phase become
    `serve.batch` spans from send to their last ΔQ arrival."""

    class Region:
        seconds = 0.0

    def __init__(self, on, trace_dir):
        self.on = on
        self.trace_dir = trace_dir
        self.spans = []
        self.stack = []
        self.pending = []
        self.overhead_ns = 0

    def _add(self, name, layer, start, end, parent, batch=-1):
        self.spans.append({"id": len(self.spans) + 1, "parent": parent,
                           "name": name, "layer": layer, "start": start,
                           "end": end, "batch": batch, "pool_busy_ns": 0})
        return self.spans[-1]

    @contextlib.contextmanager
    def span(self, name, layer, batch=-1):
        region = Tracer.Region()
        rec = None
        if self.on:
            t = time.monotonic_ns()
            parent = self.stack[-1]["id"] if self.stack else 0
            rec = self._add(name, layer, t, t, parent, batch)
            self.stack.append(rec)
            self.overhead_ns += time.monotonic_ns() - t
        start = time.monotonic_ns()
        try:
            yield region
        finally:
            end = time.monotonic_ns()
            region.seconds = (end - start) / 1e9
            if rec is not None:
                rec["start"], rec["end"] = start, end
                self.stack.pop()

    def inflight(self, start_ns, seq):
        if self.on:
            self.pending.append((start_ns, seq))

    def close_inflight(self, subs):
        if not self.on:
            return
        parent = self.stack[-1]["id"] if self.stack else 0
        for start, seq in self.pending:
            ends = [s.arrival[seq] for s in subs if seq in s.arrival]
            if ends:
                self._add("serve.batch", "serve", start, max(ends), parent, seq)
        self.pending = []

    def child_trace_path(self, name):
        if not self.on:
            return None
        return os.path.join(self.trace_dir, f"{name}.{os.getpid()}.json")

    def merge(self, path):
        """Adds a child process's spans (same monotonic clock) under the
        current span."""
        if not path or not os.path.exists(path):
            return
        t = time.monotonic_ns()
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        os.remove(path)
        parent = self.stack[-1]["id"] if self.stack else 0
        base = len(self.spans)
        for ev in events:
            a = ev["args"]
            start = int(ev["ts"] * 1e3)
            self.spans.append({
                "id": base + a["id"],
                "parent": base + a["parent"] if a["parent"] else parent,
                "name": ev["name"], "layer": ev["cat"], "start": start,
                "end": start + int(ev["dur"] * 1e3), "batch": a["batch"],
                "pool_busy_ns": a["pool_busy_ns"]})
        self.overhead_ns += time.monotonic_ns() - t

    def write(self, path):
        events = [{"name": s["name"], "cat": s["layer"], "ph": "X",
                   "ts": s["start"] / 1e3, "dur": (s["end"] - s["start"]) / 1e3,
                   "pid": 1, "tid": 1,
                   "args": {"id": s["id"], "parent": s["parent"],
                            "batch": s["batch"],
                            "pool_busy_ns": s["pool_busy_ns"]}}
                  for s in self.spans]
        with open(path, "w") as f:
            json.dump({"traceEvents": events}, f)


def build(build_dir):
    """Configures once and builds the daemon and the tool (a no-op when
    up to date). Build output goes to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(THREADS),
                    "--target", "perfbench_tool", "example_itg_serve"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return (os.path.join(build_dir, "perfbench_tool"),
            os.path.join(build_dir, "example_itg_serve"))


def mean(values):
    return sum(values) / len(values) if values else 0.0


def med(values):
    return stats.median(values) if values else 0.0


def oneshot_layers(r):
    """Per-layer metrics of the one-shots in a tool result: set-up parts,
    the one-shot profile, thread scaling and the pool."""
    oneshot = med(r.get("oneshot_s", []))
    edges = med(r.get("engine_oneshot_edges", []))
    one_t = med(r.get("engine_oneshot_1t_s", []))
    util = [b / (t * w) for b, t, w in
            zip(r.get("pool_busy_s", []), r.get("oneshot_s", []),
                r.get("pool_threads", []))]
    return {
        "compiler.compile_ms": med(r.get("compiler_compile_ms", [])),
        "storage.create_s": med(r.get("storage_create_s", [])),
        "storage.oneshot_write_mb": med(r.get("storage_oneshot_write_mb", [])),
        "storage.pool_hit_rate": med(r.get("storage_pool_hit_rate", [])),
        "storage.page_reads": med(r.get("storage_page_reads", [])),
        "engine.walk_s": med(r.get("engine_walk_s", [])),
        "engine.update_s": med(r.get("engine_update_s", [])),
        "engine.oneshot_edges": edges,
        "engine.oneshot_evals": med(r.get("engine_oneshot_evals", [])),
        "engine.edges_per_s": edges / oneshot if oneshot else 0.0,
        "engine.oneshot_1t_s": one_t,
        "engine.scaling": one_t / oneshot if oneshot and one_t else 0.0,
        "pool.util": med(util),
        "pool.busy_s": med(r.get("pool_busy_s", [])),
        "pool.steals": med(r.get("pool_steals", [])),
        "trace.tool_overhead_ns": r.get("trace_overhead_ns", 0),
    }


def run_batch(tool, workload, workdir, seed, seconds, tracer):
    cfg = BATCH[workload]
    rounds = max(2, int(round(seconds / cfg["round_s"])))
    with tracer.span("tool", "bench"):
        trace_out = tracer.child_trace_path("tool")
        proc = subprocess.run(
            [tool, "batch", "--workload", workload, "--seed", str(seed),
             "--dir", workdir, "--rounds", str(rounds),
             "--snapshots", str(cfg["snapshots"]),
             "--trace-out", trace_out or "-"],
            capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"perfbench_tool failed: {proc.stderr.strip()}")
        r = json.loads(proc.stdout)
        tracer.merge(trace_out)
    if r["error"]:
        print(f"perfbench: operation failed: {r['error']}", file=sys.stderr)

    inc = r.get("incremental_s", [])
    oneshot = med(r.get("oneshot_s", []))
    end_to_end = {
        "setup_s": med(r["setup_s"]),
        "oneshot_s": oneshot,
        "incremental_s": med(inc),
        # Batches are applied back to back, so a batch's result is ready
        # one snapshot after it is handed over.
        "notify_p50_ms": med(inc) * 1e3,
        "max_bps": len(inc) / r["snapshot_wall_s"] if inc else 0.0,
        "disk_mb_per_batch": mean(r.get("storage_write_mb", [])),
        "peak_rss_mb": med(r["peak_rss_mb"]),
    }
    inc_edges = mean(r.get("engine_inc_edges", []))
    oneshot_edges = med(r.get("engine_oneshot_edges", []))
    per_layer = oneshot_layers(r)
    per_layer.update({
        "storage.apply_ms": med(r.get("storage_apply_ms", [])),
        "storage.write_mb_per_snapshot": mean(r.get("storage_write_mb", [])),
        "storage.read_mb_per_snapshot": mean(r.get("storage_read_mb", [])),
        "engine.inc_edges": inc_edges,
        "engine.inc_emissions": mean(r.get("engine_inc_emissions", [])),
        "engine.inc_update_s": med(r.get("engine_inc_update_s", [])),
        "engine.inc_work_ratio": inc_edges / oneshot_edges if oneshot_edges else 0.0,
        "engine.walks_pruned": mean(r.get("engine_walks_pruned", [])),
        "baselines.graphbolt_oneshot_s": med(r.get("baselines_graphbolt_oneshot_s", [])),
        "baselines.graphbolt_incremental_s":
            med(r.get("baselines_graphbolt_incremental_s", [])),
    })
    result = {"attempted": r["attempted"], "failed": r["failed"],
              "mismatches": [r["mismatch"]] if r["mismatch"] else []}
    return result, end_to_end, per_layer


def layer_table(tracer, wall_start, wall_end):
    """Self time per layer and the unaccounted share, printed and returned.
    The pool works inside engine calls, so its row is the workers' busy
    time and their utilization over the engine's wall time."""
    own = stats.self_times(tracer.spans)
    wall = (wall_end - wall_start) / 1e9
    print(f"{'layer':<10} {'self_s':>9} {'share':>7}")
    for layer in LAYERS:
        s = own.get(layer, 0) / 1e9
        print(f"{layer:<10} {s:>9.3f} {100 * s / wall:>6.1f}%")
    unaccounted = stats.unaccounted_share(tracer.spans, wall_start, wall_end)
    print(f"{'(none)':<10} {unaccounted * wall:>9.3f} {100 * unaccounted:>6.1f}%")
    busy = sum(s["pool_busy_ns"] for s in tracer.spans) / 1e9
    engine = own.get("engine", 0) / 1e9
    util = busy / (THREADS * engine) if engine else 0.0
    print(f"{'pool':<10} busy {busy:.3f} s over {THREADS} workers: "
          f"utilization {util:.2f} of the engine's {engine:.3f} s")
    return {f"self.{layer}_s": own.get(layer, 0) / 1e9 for layer in LAYERS}, unaccounted


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    wall_start = time.monotonic_ns()

    root = os.getcwd()
    for need in ("src", os.path.join("examples", "itg_serve.cc")):
        if not os.path.exists(os.path.join(root, need)):
            print(f"perfbench: {need} not found; run from the repository root",
                  file=sys.stderr)
            return 2
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    kind = "serve" if args.workload == "serve-wcc" else "batch"
    os.makedirs(build_dir, exist_ok=True)
    free = shutil.disk_usage(build_dir).free
    if free < MIN_FREE_BYTES[kind]:
        print(f"perfbench: only {free >> 20} MiB free disk", file=sys.stderr)
        return 2

    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    tracer = Tracer(args.trace == 1, trace_dir)
    workdir = os.path.join(build_dir, "runs", str(os.getpid()))

    def on_signal(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        with tracer.span("build", "bench"):
            tool, serve_bin = build(build_dir)
        os.makedirs(workdir)
        if kind == "batch":
            result, end_to_end, per_layer = run_batch(
                tool, args.workload, workdir, args.seed, args.seconds, tracer)
        else:
            result, end_to_end, per_layer, check = serve.run(
                tool, serve_bin, workdir, args.seed, args.seconds, tracer)
            per_layer.update(oneshot_layers(check))
    except (serve.ServeError, RuntimeError, subprocess.CalledProcessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wall_end = time.monotonic_ns()

    if args.trace:
        trace_path = os.path.join(
            trace_dir, f"{args.workload}.seed{args.seed}.json")
        tracer.write(trace_path)
        print(f"trace: {trace_path}")
        own, unaccounted = layer_table(tracer, wall_start, wall_end)
        per_layer.update(own)
        overhead = tracer.overhead_ns + per_layer.pop("trace.tool_overhead_ns")
        per_layer["trace.overhead_pct"] = 100 * overhead / (wall_end - wall_start)
        per_layer["trace.unaccounted_pct"] = 100 * unaccounted
        units = PER_LAYER
        values = per_layer
    else:
        units = END_TO_END
        values = end_to_end
    for m in result["mismatches"]:
        print(f"perfbench: WRONG RESULT: {m}", file=sys.stderr)
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units}
    for name, m in metrics.items():
        print(f"{name:<36} {m['value']:>16.6f} {m['unit']}")
    print(json.dumps({"correct": not result["mismatches"],
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 1 if result["mismatches"] else 0


if __name__ == "__main__":
    sys.exit(main())
