"""The serve-wcc workload: example_itg_serve with two standing WCC views,
driven over loopback by an open-loop generator in this process.

Five daemons start from the same base graph, each start one set-up
sample: three only register their views, the fourth takes the open-loop
latency phase, the fifth (fresh, so its delta chains start as short as
the fourth's did) takes the back-to-back burst. Each phase is bounded by
a batch count. No `status` op is sent while a phase runs; the daemon's
own serve.* series are read from the report it writes at shutdown."""

import json
import os
import random
import shutil
import socket
import subprocess
import threading
import time

import stats

RATE_BPS = 10.0  # latency phase: offered batches per second (Poisson)
VIEWS = ("q1", "q2")
DAEMON_THREADS = 2
LATE_LIMIT_MS = 20.0  # p90 generator lateness beyond which a phase is invalid
WAIT_S = 60.0  # longest wait for a daemon to start, drain or exit
SETUP_ONLY = 3  # daemons that only register, for set-up samples
CHECK_REPEATS = 15  # WCC one-shots of the drain check (oneshot_s samples)


class ServeError(Exception):
    pass


def now_ns():
    return time.monotonic_ns()


class Conn:
    """One NDJSON connection to the daemon."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=WAIT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def send(self, obj):
        self.sock.sendall((json.dumps(obj, separators=(",", ":")) + "\n").encode())

    def recv(self):
        line = self.rfile.readline()
        if not line:
            return None
        return json.loads(line)

    def close(self):
        try:
            self.rfile.close()
            self.sock.close()
        except OSError:
            pass


class Subscriber(threading.Thread):
    """Registers one view with `subscribe` and records every ΔQ it streams:
    arrival time, digest and changed-cell count per batch sequence."""

    def __init__(self, conn, view):
        super().__init__(daemon=True)
        self.conn, self.view = conn, view
        self.arrival = {}  # seq -> ns
        self.digest = {}
        self.cells = 0
        self.duplicates = 0

    def run(self):
        try:
            while True:
                msg = self.conn.recv()
                if msg is None:
                    return
                if msg.get("type") != "delta":
                    continue
                t = now_ns()
                seq = msg["seq"]
                if seq in self.arrival:
                    self.duplicates += 1
                self.arrival[seq] = t
                self.digest[seq] = msg["digest"]
                self.cells += sum(len(c["vertices"]) for c in msg["changes"])
        except (OSError, ValueError):
            return


class AckReader(threading.Thread):
    """Reads ingest acks in send order (one connection answers in order)."""

    def __init__(self, conn):
        super().__init__(daemon=True)
        self.conn = conn
        self.acks = []  # (ns, response)

    def run(self):
        try:
            while True:
                msg = self.conn.recv()
                if msg is None:
                    return
                self.acks.append((now_ns(), msg))
        except (OSError, ValueError):
            return


def read_port(path):
    """The port the daemon wrote to `path` (one line), None until then."""
    try:
        with open(path) as f:
            text = f.read()
    except FileNotFoundError:
        return None
    return int(text) if text.endswith("\n") else None


class Daemon:
    """One example_itg_serve process with its two views registered."""

    def __init__(self, binary, workdir, name, tracer, started):
        self.dir = os.path.join(workdir, name)
        os.makedirs(self.dir)
        self.scratch = os.path.join(self.dir, "stores")
        self.report_path = os.path.join(self.dir, "report.json")
        portfile = os.path.join(self.dir, "port")
        self.tracer = tracer
        self.subs = []
        self.conns = []
        with tracer.span("daemon.start", "serve"), \
                open(os.path.join(self.dir, "daemon.log"), "wb") as log:
            t0 = now_ns()
            env = dict(os.environ, TMPDIR=self.dir)
            self.proc = subprocess.Popen(
                [binary, "--graph", os.path.join(workdir, "g0.txt"),
                 "--symmetric", "--threads", str(DAEMON_THREADS), "--port", "0",
                 "--portfile", portfile, "--scratch", self.scratch,
                 "--metrics-json", self.report_path],
                stdout=log, stderr=subprocess.STDOUT, env=env)
            started.append(self)
            while (port := read_port(portfile)) is None:
                if self.proc.poll() is not None:
                    raise ServeError(f"daemon exited with {self.proc.returncode}")
                if now_ns() - t0 > WAIT_S * 1e9:
                    raise ServeError("daemon did not start")
                time.sleep(0.002)
            self.port = port
        self.register_s = []
        for view in VIEWS:
            conn = self.connect()
            with tracer.span("serve.register", "serve") as span:
                conn.send({"op": "register", "query": view, "program": "wcc",
                           "symmetric": True, "subscribe": True})
                ack = conn.recv()
            if not ack or ack.get("type") != "ack":
                raise ServeError(f"register {view}: {ack}")
            self.register_s.append(span.seconds)
            sub = Subscriber(conn, view)
            sub.start()
            self.subs.append(sub)
        self.setup_s = (now_ns() - t0) / 1e9
        self.ingest = self.connect()
        self.acks = AckReader(self.ingest)
        self.acks.start()

    def connect(self):
        conn = Conn(self.port)
        self.conns.append(conn)
        return conn

    def store_bytes(self):
        total = 0
        for root, _, files in os.walk(self.scratch):
            for f in files:
                total += os.path.getsize(os.path.join(root, f))
        return total

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServeError("no VmHWM for the daemon")

    def wait_for(self, seq):
        """Waits until every view streamed ΔQ `seq`, the daemon exits, or
        WAIT_S passes; what is still missing then counts as failed."""
        deadline = now_ns() + WAIT_S * 1e9
        while now_ns() < deadline and self.proc.poll() is None:
            if all(seq in s.arrival for s in self.subs):
                return
            time.sleep(0.001)

    def shutdown(self):
        """Stops the daemon through the wire op and reads its report."""
        with self.tracer.span("serve.shutdown", "serve"):
            if self.proc.poll() is None:
                try:
                    self.ingest.send({"op": "shutdown"})
                    self.proc.wait(timeout=WAIT_S)
                except (OSError, subprocess.TimeoutExpired):
                    self.kill()
            for conn in self.conns:
                conn.close()
            for t in self.subs + [self.acks]:
                t.join(timeout=5)
        shutil.rmtree(self.scratch, ignore_errors=True)
        if not os.path.exists(self.report_path):
            raise ServeError(f"daemon exited with {self.proc.returncode} "
                             "without a report")
        with open(self.report_path) as f:
            return json.load(f)

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def read_batches(path, count):
    out = []
    with open(path) as f:
        for line in f:
            if len(out) == count:
                break
            ins, dels = line.split("|")
            ins, dels = [int(x) for x in ins.split()], [int(x) for x in dels.split()]
            out.append({"op": "ingest",
                        "inserts": [ins[i:i + 2] for i in range(0, len(ins), 2)],
                        "deletes": [dels[i:i + 2] for i in range(0, len(dels), 2)]})
    return out


def latency_phase(d, batches, seed, tracer):
    """Open loop: Poisson sends at RATE_BPS from a seeded schedule. Every
    ΔQ is timed from its batch's intended send time."""
    rng = random.Random(seed)
    t_start = now_ns() + 20_000_000
    due, t = [], t_start
    for _ in batches:
        t += int(rng.expovariate(RATE_BPS) * 1e9)
        due.append(t)
    sent = []
    with tracer.span("latency", "load"):
        for i, batch in enumerate(batches):
            wait = (due[i] - now_ns()) / 1e9
            if wait > 0:
                time.sleep(wait)
            sent.append(now_ns())
            d.ingest.send(batch)
            tracer.inflight(sent[-1], i + 1)
        d.wait_for(len(batches))
        tracer.close_inflight(d.subs)
    return due, sent


def burst_phase(d, batches, tracer):
    """Sends every batch back to back; the rate is the burst size over
    the time from its first send to its last ΔQ at every subscriber."""
    with tracer.span("burst", "load"):
        first = now_ns()
        for i, batch in enumerate(batches):
            d.ingest.send(batch)
            tracer.inflight(now_ns(), i + 1)
        d.wait_for(len(batches))
        tracer.close_inflight(d.subs)
    return first


def stage(report, name):
    """(p50, p99, mean) µs of a serve.stage_latency_us series; per-view
    stages are averaged over the views."""
    rows = [r for r in report["serving"]["stage_latency_us"]
            if r["stage"] == name or r["stage"].startswith(name + ".")]
    if not rows:
        return 0.0, 0.0, 0.0
    k = len(rows)
    return (sum(r["p50"] for r in rows) / k, sum(r["p99"] for r in rows) / k,
            sum(r["sum"] / max(r["count"], 1) for r in rows) / k)


def view_cpu_ns(report):
    counters = report["metrics"]["counters"]
    return sum(counters.get(f"resource.view.{v}.cpu_nanos", 0) for v in VIEWS)


def run(tool, serve_bin, workdir, seed, seconds, tracer):
    """Runs serve-wcc; returns the result fields, the end-to-end and
    serving per-layer metrics, and the drain check's one-shot samples."""
    # At least 100 batches: the p90s of lateness and notify need ten beyond.
    n_lat = max(100, int(round(RATE_BPS * seconds * 0.75)))
    n_burst = 2 * n_lat
    with tracer.span("gen", "bench"):
        gen = json.loads(subprocess.run(
            [tool, "serve-gen", "--seed", str(seed), "--batches", str(n_burst),
             "--dir", workdir], check=True, capture_output=True, text=True).stdout)
        batches = read_batches(os.path.join(workdir, "batches.txt"), n_burst)
    num_vertices = gen["num_vertices"]

    daemons = []
    try:
        # Set-up only: their reports give the registration-time writes
        # and view CPU that the phase daemons' totals also contain.
        setup_only = []
        for i in range(SETUP_ONLY):
            with tracer.span("setup", "bench"):
                d = Daemon(serve_bin, workdir, f"setup{i}", tracer, daemons)
                setup_only.append(d)
                reg_report = d.shutdown()
        with tracer.span("setup", "bench"):
            d1 = Daemon(serve_bin, workdir, "latency", tracer, daemons)
        bytes0 = d1.store_bytes()
        due, sent = latency_phase(d1, batches[:n_lat], seed, tracer)
        with tracer.span("drain", "serve"):
            lat_bytes = d1.store_bytes() - bytes0
            rss1 = d1.peak_rss_mb()
            lat_report = d1.shutdown()
        with tracer.span("setup", "bench"):
            d2 = Daemon(serve_bin, workdir, "burst", tracer, daemons)
        bytes0 = d2.store_bytes()
        burst_start = burst_phase(d2, batches, tracer)
        with tracer.span("drain", "serve"):
            burst_bytes = d2.store_bytes() - bytes0
            rss2 = d2.peak_rss_mb()
            d2.shutdown()
    finally:
        for d in daemons:
            d.kill()

    for d in (d1, d2):
        if any(s.duplicates for s in d.subs):
            raise ServeError("a view streamed one batch twice")

    # Failures: batches not acked, or acked without a ΔQ on every view.
    attempted, failed = 0, 0
    for d, n in ((d1, n_lat), (d2, n_burst)):
        acked = {i + 1 for i, (_, a) in enumerate(d.acks.acks[:n])
                 if a.get("type") == "ack"}
        failed += stats.count_failures(n, acked, {s.view: set(s.arrival) for s in d.subs})
        attempted += n

    # Correctness: each view's last digest equals a fresh one-shot over
    # its final edge set (WCC over G0 plus every batch it was sent).
    mismatches, checks = [], []
    with tracer.span("check", "bench"):
        for d, n, repeats in ((d1, n_lat, CHECK_REPEATS), (d2, n_burst, 1)):
            trace_out = tracer.child_trace_path("check")
            result = json.loads(subprocess.run(
                [tool, "serve-check", "--dir", workdir, "--applied", str(n),
                 "--repeats", str(repeats), "--trace-out", trace_out or "-"],
                check=True, capture_output=True, text=True).stdout)
            tracer.merge(trace_out)
            checks.append(result)
            for sub in d.subs:
                if failed == 0 and sub.digest.get(n) != result["digest"]:
                    mismatches.append(f"view {sub.view} after {n} batches: digest "
                                      f"{sub.digest.get(n)} != one-shot {result['digest']}")
    check = checks[0]  # CHECK_REPEATS one-shots: the oneshot_s samples

    # Latency phase figures.
    # A batch is notified when its ΔQ has reached every subscriber. (Pooling
    # per-subscriber samples would mix two modes, since the second view
    # runs after the first, and put the median in the gap between them.)
    notify_ms = [(max(s.arrival[i + 1] for s in d1.subs) - due[i]) / 1e6
                 for i in range(n_lat) if all(i + 1 in s.arrival for s in d1.subs)]
    late_ms = [(sent[i] - due[i]) / 1e6 for i in range(n_lat)]
    stalls = lat_report["serving"]["backpressure_stalls"]
    if stats.percentile(late_ms, 90) > LATE_LIMIT_MS or stalls:
        raise ServeError(f"latency phase invalid: generator p90 lateness "
                         f"{stats.percentile(late_ms, 90):.1f} ms, {stalls} stalls")

    # Burst figures: per-batch completion = last view's ΔQ arrival.
    done = [max(s.arrival[i] for s in d2.subs) for i in range(1, n_burst + 1)
            if all(i in s.arrival for s in d2.subs)]
    if len(done) < 2:
        raise ServeError("the burst delivered no ΔQ")
    gaps = [(b - a) / 1e9 for a, b in zip(done, done[1:])]
    max_bps = len(done) / ((done[-1] - burst_start) / 1e9)

    setups = [d.setup_s for d in setup_only + [d1, d2]]
    end_to_end = {
        "setup_s": stats.median(setups),
        "oneshot_s": stats.median(check["oneshot_s"]),
        "incremental_s": stats.median(gaps),
        "notify_p50_ms": stats.median(notify_ms),
        "max_bps": max_bps,
        "disk_mb_per_batch": (lat_bytes + burst_bytes) / 1e6 / (n_lat + n_burst),
        "peak_rss_mb": max(rss1, rss2),
    }

    ack_ms = [(t - s) / 1e6 for (t, _), s in zip(d1.acks.acks, sent)]
    depth = [a.get("queue_depth", 0) for _, a in d1.acks.acks[:n_lat]]
    validate = stage(lat_report, "validate")
    queue_wait = stage(lat_report, "queue_wait")
    apply = stage(lat_report, "apply")
    view_run = stage(lat_report, "view_run")
    flush = stage(lat_report, "stream_flush")
    lat_writes = (lat_report["metrics"]["counters"]["io.write_bytes"]
                  - reg_report["metrics"]["counters"]["io.write_bytes"])
    per_layer = {
        "serve.register_s": stats.median(
            [r for d in setup_only + [d1, d2] for r in d.register_s]),
        "serve.ingest_ack_ms_p50": stats.median(ack_ms),
        "serve.validate_us_p50": validate[0],
        "serve.apply_us_p50": apply[0],
        "serve.flush_us_p50": flush[0],
        "serve.view_run_us_p50": view_run[0],
        "serve.view_run_us_p99": view_run[1],
        "serve.view_cpu_ms_per_batch":
            (view_cpu_ns(lat_report) - view_cpu_ns(reg_report)) / 1e6 / n_lat,
        "serve.queue_wait_us_p99": queue_wait[1],
        "serve.queue_depth_max": max(depth) if depth else 0,
        "serve.backpressure_stalls": stalls,
        "serve.delta_cell_ratio":
            sum(s.cells for s in d1.subs) / (num_vertices * len(VIEWS) * n_lat),
        "serve.write_mb_per_batch": lat_writes / 1e6 / n_lat,
        "load.late_ms_p90": stats.percentile(late_ms, 90),
        "load.achieved_bps": (n_lat - 1) / ((sent[-1] - sent[0]) / 1e9),
        "load.offered_bps": (n_lat - 1) / ((due[-1] - due[0]) / 1e9),
        "load.samples": len(notify_ms),
        "load.notify_p90_ms": stats.percentile(notify_ms, 90),
        "storage.apply_ms": apply[2] / 1e3,
    }
    result = {"attempted": attempted, "failed": failed,
              "mismatches": mismatches}
    return result, end_to_end, per_layer, check
