#!/usr/bin/env python3
"""End-to-end benchmark of the Patchwork reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload weekly|analyze|store \\
        --seed N --seconds S --trace 0|1

The script builds the CLI and the benchmark's OCaml half with dune, makes
the workload's inputs from --seed, runs it, checks the outputs, prints a
human-readable report and provenance, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
from a traced run.  Everything it writes goes under perfbench/_work/,
which is removed on exit.  See perfbench/README.md for the workloads,
metrics and why they are built this way.
"""

import argparse
import glob
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

CLI = os.path.join("_build", "default", "bin", "patchwork_cli.exe")
PB = os.path.join("_build", "default", "perfbench", "perfbench.exe")
WORD_BYTES = 8

# Calibration.  The host's speed drifts by 10-20% within seconds to
# minutes, which moves the timings of a repetition together.  Right
# before every repetition the run times a fixed reference kernel
# (calibrate.ml: plain OCaml, none of the repo's libraries) and scales
# that repetition's timings by KERNEL_REF_S / kernel time, i.e. reports
# them in seconds of a host on which the kernel takes KERNEL_REF_S.  Raw
# figures are printed beside the calibrated ones.
KERNEL_REF_S = 0.25

# Input sizes.  A run's repetition count scales with --seconds; the
# sizes below stay fixed so that every run of a workload measures the
# same amount of work per repetition.
SIZES = {
    "full": {
        "weekly": {"weeks": 4, "hours": 0.25, "start_day": 30, "unit_s": 3.0,
                   "read_records": 6000},
        "analyze": {"frames": 200_000, "snaplen": 256, "excerpt": 2000, "unit_s": 1.8},
        "store": {"groups": 240, "ops_per_round": 8, "unit_s": 1.3},
    },
    "smoke": {
        "weekly": {"weeks": 1, "hours": 0.2, "start_day": 30, "unit_s": 1.0,
                   "read_records": 400},
        "analyze": {"frames": 5000, "snaplen": 256, "excerpt": 500, "unit_s": 0.5},
        "store": {"groups": 24, "ops_per_round": 8, "unit_s": 0.5},
    },
}
DISSECT_OPS_PER_JOB = 8  # analyze read ops after each job
# Weekly read ops: READ_REPEATS cycles of the four `query` commands per
# member, on a store of `read_records` records in READ_SEGMENTS files.
READ_REPEATS = 2
READ_SEGMENTS = 4
WARM_UP_SEED = 1  # CLI seed of the weekly set-up's warm-up service

END_TO_END = [
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("alloc_words_per_item", "words"),
    ("peak_heap_mb", "MB"),
    ("query_ms_p50", "ms"),
    ("query_ms_tail", "ms"),
    ("setup_s", "s"),
]

# Per-layer metrics of the traced run.  Every *_s / *_words row is a self
# figure, so a workload's rows plus unattributed_s sum to traced_wall_s.
# A layer a workload never calls reads 0 there.
PER_LAYER = [
    ("testbed.setup_s", "s"),
    ("core.occasion_s", "s"),
    ("core.occasion_words", "words"),
    ("core.sampling_s", "s"),
    ("core.sampling_words", "words"),
    ("core.sites_failed_ratio", "ratio"),
    ("core.ledger_violations", "count"),
    ("traffic.flows_spawned", "count"),
    ("simcore.events", "count"),
    ("analysis.absorb_s", "s"),
    ("analysis.absorb_words", "words"),
    ("analysis.finish_s", "s"),
    ("analysis.write_s", "s"),
    ("analysis.flowstore_spill_s", "s"),
    ("packet.index_s", "s"),
    ("packet.index_words", "words"),
    ("analysis.digest_s", "s"),
    ("analysis.digest_words", "words"),
    ("analysis.summarize_s", "s"),
    ("dissect.overlay_share", "ratio"),
    ("analysis.flowstore_ingest_s", "s"),
    ("analysis.flowstore_query_s", "s"),
    ("analysis.flowstore_lookup_s", "s"),
    ("analysis.query_scan_ratio", "ratio"),
    ("obs.tsdb_append_s", "s"),
    ("obs.tsdb_flush_s", "s"),
    ("obs.tsdb_compact_s", "s"),
    ("obs.tsdb_query_s", "s"),
    ("obs.tsdb_tail_s", "s"),
    ("obs.tsdb_records_scanned", "count"),
    ("parallel.pool_busy_s", "s"),
    ("traced_wall_s", "s"),
    ("unattributed_s", "s"),
    ("tracing_overhead_s", "s"),
]

# Layer rows whose minor words are reported as their own metric.
WORD_ROWS = {
    "core.occasion_s": "core.occasion_words",
    "core.sampling_s": "core.sampling_words",
    "analysis.absorb_s": "analysis.absorb_words",
    "packet.index_s": "packet.index_words",
    "analysis.digest_s": "analysis.digest_words",
}


class BenchError(Exception):
    """A failure of the benchmark itself (build, missing tool): no result."""


def log(msg=""):
    print(msg, flush=True)


# --- subprocesses ------------------------------------------------------


def child_env(work, gc_stats):
    env = dict(os.environ)
    env["TMPDIR"] = work
    if gc_stats:
        env["OCAMLRUNPARAM"] = "v=0x400"  # GC totals on stderr at exit
    else:
        env.pop("OCAMLRUNPARAM", None)
    return env


def run(cmd, work, gc_stats=False, extra_env=None):
    """Run to completion; returns (wall seconds, stdout, stderr, code)."""
    env = child_env(work, gc_stats)
    if extra_env:
        env.update(extra_env)
    t0 = time.perf_counter()
    p = subprocess.run(cmd, capture_output=True, text=True, env=env)
    wall = time.perf_counter() - t0
    return wall, p.stdout, p.stderr, p.returncode


def gc_totals(stderr):
    """allocated_words and top_heap_words from OCAMLRUNPARAM=v=0x400."""
    out = {}
    for line in stderr.splitlines():
        m = re.match(r"^(allocated_words|top_heap_words): (\d+)$", line.strip())
        if m:
            out[m.group(1)] = int(m.group(2))
    if len(out) != 2:
        raise BenchError("no GC totals on stderr:\n" + stderr[-2000:])
    return out


def parse_pb(stdout):
    """Lines printed by perfbench.exe: metric/layer/check/info/op."""
    res = {"metric": {}, "layer": {}, "check": [], "info": {}, "op": []}
    for line in stdout.splitlines():
        parts = line.split(" ", 1)
        if len(parts) != 2:
            continue
        kind, rest = parts
        if kind == "metric":
            name, v = rest.split()
            res["metric"][name] = float(v)
        elif kind == "layer":
            name, count, self_s, words = rest.split()
            res["layer"][name] = (int(count), float(self_s), float(words))
        elif kind == "check":
            name, status, *detail = rest.split(" ", 2)
            res["check"].append((name, status == "ok", " ".join(detail)))
        elif kind == "info":
            key, v = rest.split(" ", 1)
            res["info"][key] = v
        elif kind == "op":
            k, v, r = rest.split()
            res["op"].append((k, float(v), int(r)))
    return res


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--display", "quiet",
           "./bin/patchwork_cli.exe", "./perfbench/perfbench.exe"]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, env=env)
    except FileNotFoundError as e:
        raise BenchError("dune not found: %s" % e)
    if p.returncode != 0 or not (os.path.exists(CLI) and os.path.exists(PB)):
        raise BenchError("build failed:\n" + p.stderr[-4000:])


def program_info():
    """OCaml version and default domain count, as perfbench.exe reports them."""
    _, out, _, _ = run([PB, "info"], os.getcwd())
    return parse_pb(out)["info"]


def provenance(seed, workload, inputs):
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True).stdout.strip()
    except OSError:
        commit = ""
    if not commit:
        # Checkouts without git metadata: digest of the sources instead.
        h = hashlib.sha256()
        for path in sorted(glob.glob("lib/**/*.ml*", recursive=True)
                           + glob.glob("bin/*.ml") + glob.glob("perfbench/*.ml")
                           + glob.glob("perfbench/*.py")):
            with open(path, "rb") as f:
                h.update(path.encode() + b"\0" + f.read())
        commit = "source-sha256:" + h.hexdigest()[:16]
    info = program_info()
    log("provenance: commit=%s nproc=%d ocaml=%s domains=%s workload=%s seed=%d"
        % (commit, os.cpu_count() or 0, info.get("ocaml", "?"), info.get("domains", "?"),
           workload, seed))
    log("inputs: " + inputs)


# --- statistics --------------------------------------------------------


def tail(latencies):
    """Highest percentile with at least ten ops beyond it: the value of the
    (n-10)-th smallest op, i.e. percentile 100*(n-10)/n."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def latency_metrics(latencies_s, metrics):
    ms = [x * 1000.0 for x in latencies_s]
    p50 = statistics.median(ms)
    t, pct, n = tail(ms)
    metrics["query_ms_p50"] = p50
    metrics["query_ms_tail"] = t
    log("read ops (calibrated): %d, p50 %.3f ms, tail p%.1f %.3f ms (%d ops beyond it)"
        % (n, p50, pct, t, n - (n - 10 if n > 10 else n)))


def kernel(work, run_):
    """Time the reference kernel now; returns the factor that scales the
    timings of the repetition that follows to the reference speed."""
    _, out, err, code = run([PB, "calibrate"], work)
    if code != 0:
        raise BenchError("calibration kernel failed:\n" + err[-2000:])
    k = parse_pb(out)["metric"]["kernel_s"]
    run_.kernels.append(k)
    return KERNEL_REF_S / k


def median_setup(fn, work, run_, times=3):
    """Median calibrated wall of `times` set-ups."""
    walls, raw = [], []
    for _ in range(times):
        scale = kernel(work, run_)
        t0 = time.perf_counter()
        fn()
        raw.append(time.perf_counter() - t0)
        walls.append(raw[-1] * scale)
    log("set-up: %d runs, median %.3f s raw, %.3f s calibrated"
        % (times, statistics.median(raw), statistics.median(walls)))
    return statistics.median(walls)


def log_calibration(kernels):
    log("calibration: reference kernel median %.4f s over %d samples (min %.4f, "
        "max %.4f); each repetition scaled by %.2f s / its kernel time"
        % (statistics.median(kernels), len(kernels), min(kernels), max(kernels),
           KERNEL_REF_S))


def files_of(d):
    """name -> bytes of the CSVs under d."""
    return {os.path.basename(p): open(p, "rb").read()
            for p in sorted(glob.glob(os.path.join(d, "*.csv")))}


# --- result bookkeeping --------------------------------------------------


class Run:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = []
        self.metrics = {}
        self.kernels = []

    def op(self, ok, name, detail=""):
        """Count one checked operation; a failed check is a failed op."""
        self.attempted += 1
        if not ok:
            self.failed += 1
        self.check(ok, name, detail)

    def check(self, ok, name, detail=""):
        self.checks.append((name, ok, detail))
        if not ok:
            log("CHECK FAILED: %s %s" % (name, detail))

    def correct(self):
        return all(ok for _, ok, _ in self.checks) and self.failed == 0


def corrupt_file(path):
    """Self-test hook (--corrupt): flip one byte of an output so that the
    check comparing it must fail."""
    with open(path, "r+b") as f:
        b = f.read(1)
        f.seek(0)
        f.write(bytes([(b[0] ^ 0x20) if b else 0x20]))


# --- weekly --------------------------------------------------------------

TIMING = re.compile(r" in [0-9.]+s \([0-9.]+ records/s\)")


def weekly_query_ops(fs, site):
    """The read ops issued against a weekly flow store, by name."""
    return [
        ("top", [CLI, "query", fs, "--top", "20"]),
        ("udp", [CLI, "query", fs, "--top", "10", "--proto", "udp"]),
        ("site", [CLI, "query", fs, "--top", "10", "--site", site]),
    ]


def keys_of(query_out, n):
    keys = []
    for line in query_out.splitlines():
        m = re.match(r"^  (\S+)\s+\d+ B ", line)
        if m:
            keys.append(m.group(1))
    return keys[:n]


def weekly_member(cfg, seed, d, run_, metrics_out=None, corrupt=False):
    """One weekly service run.  Returns a dict, or None if it failed."""
    os.makedirs(d, exist_ok=True)
    out, fs = os.path.join(d, "out"), os.path.join(d, "fs")
    cmd = [CLI, "weekly", "--seed", str(seed), "--weeks", str(cfg["weeks"]),
           "--hours", str(cfg["hours"]), "--start-day", str(cfg["start_day"]),
           "--out", out, "--flow-store", fs]
    if metrics_out:
        cmd += ["--metrics-out", metrics_out]
    wall, stdout, stderr, code = run(cmd, d, gc_stats=True)
    m = re.search(r"(\d+) frames analyzed", stdout)
    ok = code == 0 and m is not None
    run_.op(ok, "weekly.exit", "seed %d exit %d" % (seed, code))
    if not ok:
        return None
    gc = gc_totals(stderr)
    if corrupt:
        corrupt_file(os.path.join(out, "flows.csv"))
    sites = [l.split(",")[0] for l in open(os.path.join(out, "site_headers.csv"))
             .read().splitlines()[1:2]] or ["none"]
    return {"wall": wall, "frames": int(m.group(1)), "gc": gc, "out": out,
            "fs": fs, "csvs": files_of(out), "site": sites[0]}


def weekly_reads(fs, site, run_, repeats=1, latencies=None, scale=1.0):
    """The CLI `query` commands on a flow store, `repeats` times each.
    Every repeat must print what the first did (timings stripped) and the
    key lookup must find every key.  Returns the outputs, which are also
    compared across runs and against the traced mirror.  With
    `latencies`, appends each command's wall time multiplied by `scale`."""
    outputs = {}
    d = os.path.dirname(fs)
    for _ in range(repeats):
        for name, cmd in weekly_query_ops(fs, site):
            wall, stdout, _, code = run(cmd, d)
            text = TIMING.sub("", stdout)
            ok = code == 0 and outputs.setdefault(name, text) == text
            run_.op(ok, "weekly.query." + name, "exit %d" % code)
            if latencies is not None:
                latencies.append(wall * scale)
        keys = keys_of(outputs["top"], 3)
        cmd = [CLI, "query", fs] + sum((["--key", k] for k in keys), [])
        wall, stdout, _, code = run(cmd, d)
        ok = code == 0 and outputs.setdefault("keys", stdout) == stdout \
            and stdout.count("no record") == 0 and len(keys) > 0
        run_.op(ok, "weekly.query.keys", "exit %d" % code)
        if latencies is not None:
            latencies.append(wall * scale)
    return outputs


def weekly_read_chunk(cfg, member, scale, work, run_, latencies):
    """Times the `query` commands on a store of `read_records` records
    drawn evenly from one member's store (reads.ml): a fixed size, since
    the services write stores of very different sizes, and the latency
    follows the records scanned.  The caller runs it right after a
    calibration kernel whose factor is `scale`."""
    rs = member["fs"] + "-reads"
    _, _, err, code = run([PB, "weekly-read-store", rs, str(cfg["read_records"]),
                           str(READ_SEGMENTS), member["fs"]], work)
    run_.op(code == 0, "weekly.read_store", err[-500:])
    if code == 0:
        weekly_reads(rs, member["site"], run_, READ_REPEATS, latencies, scale)


def ledger_violations(metrics_json):
    """ledger_conservation_violations_total from a metrics snapshot; the
    counter is registered at the first violation, so absent means 0."""
    with open(metrics_json) as f:
        snapshot = json.load(f)
    return sum(m["value"] for m in snapshot["metrics"]
               if m["name"] == "ledger_conservation_violations_total")


def workload_weekly(args, cfg, work, run_):
    rng = random.Random(args.seed)
    k = max(2, round(args.seconds / cfg["unit_s"]))
    panel = [rng.randrange(1, 1 << 30) for _ in range(k)]

    def setup():
        # Stage the panel's directories and warm the CLI (binary, page
        # cache, file system) with a one-week service run; occasions
        # shorter than 0.2 h take no samples.  Its seed is fixed, so that
        # every run's set-up does the same work.
        for i in range(k):
            d = os.path.join(work, "m%d" % i)
            shutil.rmtree(d, ignore_errors=True)
            os.makedirs(d)
        warm = os.path.join(work, "warm")
        shutil.rmtree(warm, ignore_errors=True)
        _, _, err, code = run([CLI, "weekly", "--seed", str(WARM_UP_SEED), "--weeks", "1",
                               "--hours", "0.2", "--out", os.path.join(warm, "out"),
                               "--flow-store", os.path.join(warm, "fs")], work)
        if code != 0:
            raise BenchError("weekly warm-up failed:\n" + err[-2000:])

    run_.metrics["setup_s"] = median_setup(setup, work, run_, times=5)
    inputs = ("panel of %d weekly services (CLI seeds %s), each --weeks %d --hours %g "
              "--start-day %d --flow-store" % (k, ",".join(map(str, panel)), cfg["weeks"],
                                             cfg["hours"], cfg["start_day"]))
    if args.trace:
        return weekly_traced(args, cfg, work, run_, panel[0], inputs)
    # Each kernel calibrates the read ops on the previous member's store,
    # timed right after it, and then the next member's service run.  The
    # read ops are spread over the run, as the host's speed shifts.
    members, latencies = [], []
    first_reads = None
    for i, s in enumerate(panel + [None]):
        scale = kernel(work, run_)
        if members:
            weekly_read_chunk(cfg, members[-1], scale, work, run_, latencies)
        if s is None:
            break
        m = weekly_member(cfg, s, os.path.join(work, "m%d" % i), run_)
        if m is None:
            continue
        m["cal"] = m["wall"] * scale
        if i == 0:
            first_reads, first = weekly_reads(m["fs"], m["site"], run_), m
        members.append(m)
        log("weekly seed %d: %.3f s raw, %.3f s calibrated, %d frames, %d words "
            "allocated, top heap %d words"
            % (s, m["wall"], m["cal"], m["frames"], m["gc"]["allocated_words"],
               m["gc"]["top_heap_words"]))
    if not members:
        return inputs, None
    # Determinism: the first service again (with a metrics snapshot for
    # the ledger check) must write identical CSVs and query answers.
    d = os.path.join(work, "again")
    again = weekly_member(cfg, panel[0], d, run_,
                          metrics_out=os.path.join(d, "metrics.json"),
                          corrupt=args.corrupt == "weekly-csv")
    if again is not None and first_reads is not None:
        run_.op(again["csvs"] == first["csvs"] and len(first["csvs"]) >= 5,
                "weekly.csv_identical", "%d CSVs" % len(first["csvs"]))
        run_.op(weekly_reads(again["fs"], again["site"], run_) == first_reads,
                "weekly.query_identical")
        snapshot = os.path.join(d, "metrics.json")
        if args.corrupt == "weekly-ledger":
            with open(snapshot) as f:
                doc = json.load(f)
            doc["metrics"].append({"name": "ledger_conservation_violations_total",
                                   "kind": "counter", "value": 1})
            with open(snapshot, "w") as f:
                json.dump(doc, f)
        v = ledger_violations(snapshot)
        run_.op(v == 0, "weekly.ledger_conservation", "%g violations" % v)
    if not latencies:
        return inputs, None
    log_calibration(run_.kernels)
    wall = sum(m["cal"] for m in members)
    frames = sum(m["frames"] for m in members)
    log("weekly panel: %.3f s raw, %.3f s calibrated"
        % (sum(m["wall"] for m in members), wall))
    run_.metrics["wall_s"] = wall
    run_.metrics["items_per_s"] = frames / wall
    run_.metrics["alloc_words_per_item"] = \
        sum(m["gc"]["allocated_words"] for m in members) / frames
    run_.metrics["peak_heap_mb"] = statistics.median(
        m["gc"]["top_heap_words"] for m in members) * WORD_BYTES / 1e6
    latency_metrics(latencies, run_.metrics)
    inputs += ("; %d frames analyzed in total; read ops on %d records drawn evenly "
               "from each member's flow store, in %d segments"
               % (frames, cfg["read_records"], READ_SEGMENTS))
    return inputs, None


def weekly_traced(args, cfg, work, run_, seed, inputs):
    walls, first = [], None
    for i in range(3):
        m = weekly_member(cfg, seed, os.path.join(work, "u%d" % i), run_)
        if m is None:
            return inputs, None
        walls.append(m["wall"])
        if first is None:
            first = m
            first_reads = weekly_reads(m["fs"], m["site"], run_)
        else:
            run_.op(m["csvs"] == first["csvs"], "weekly.csv_identical")
    d = os.path.join(work, "traced")
    os.makedirs(d)
    out, fs = os.path.join(d, "out"), os.path.join(d, "fs")
    wall, stdout, stderr, code = run(
        [PB, "weekly-trace", str(seed), str(cfg["weeks"]), str(cfg["start_day"]),
         str(cfg["hours"]), out, fs], d)
    run_.op(code == 0, "weekly.traced_exit", stderr[-500:])
    if code != 0:
        return inputs, None
    if args.corrupt == "weekly-traced-csv":
        corrupt_file(os.path.join(out, "flows.csv"))
    res = parse_pb(stdout)
    run_.op(files_of(out) == first["csvs"], "weekly.traced_csv_identical",
            "traced mirror vs CLI")
    run_.op(weekly_reads(fs, first["site"], run_) == first_reads,
            "weekly.traced_query_identical")
    v = res["metric"].get("core.ledger_violations", 1)
    run_.op(v == 0, "weekly.ledger_conservation", "%g violations" % v)
    bases = {
        "core.sites_failed_ratio": (res["metric"]["core.sites_failed"], "sites failed",
                                    res["metric"]["core.sites_attempted"],
                                    "sites attempted"),
        "dissect.overlay_share": (res["metric"]["dissect.overlay_classified"],
                                  "frames overlay-classified", res["metric"]["items"],
                                  "frames analyzed"),
    }
    return inputs, (res, statistics.median(walls), bases)


# --- analyze -------------------------------------------------------------


def workload_analyze(args, cfg, work, run_):
    pcap = os.path.join(work, "capture.pcap")
    excerpt = os.path.join(work, "excerpt.pcap")
    gen = {}

    def setup():
        _, out, err, code = run([PB, "gen-pcap", str(args.seed), str(cfg["frames"]),
                                 str(cfg["snaplen"]), pcap, str(cfg["excerpt"]),
                                 excerpt], work)
        if code != 0:
            raise BenchError("capture generation failed:\n" + err[-2000:])
        gen.update(parse_pb(out)["metric"])
        with open(pcap, "rb") as f:  # read once: later reads hit the page cache
            while f.read(1 << 20):
                pass

    run_.metrics["setup_s"] = median_setup(setup, work, run_)
    records = int(gen["records"])
    inputs = ("capture of %d pcap records (%d flows, %d bytes, snaplen %d); "
              "read ops on its first %d records"
              % (records, gen["flows"], gen["bytes"], cfg["snaplen"], cfg["excerpt"]))
    reps = 3 if args.trace else max(3, round(args.seconds / cfg["unit_s"]))
    walls, raw_walls, latencies, first, gcs = [], [], [], None, []
    dissect_out = None
    # Every job gets the same arguments (one CSV directory, removed after
    # each job): a path one character longer is a few more words
    # allocated, which would break the exact repeat checked below.
    csv = os.path.join(work, "csv")
    for i in range(reps):
        scale = kernel(work, run_)
        wall, stdout, stderr, code = run([CLI, "analyze", pcap, "--csv", csv], work,
                                         gc_stats=True)
        if code != 0:
            run_.op(False, "analyze.exit", "exit %d" % code)
            continue
        if args.corrupt == "analyze-csv" and i == 1:
            corrupt_file(os.path.join(csv, "occurrence.csv"))
        m = re.match(r"^(\d+) frames,", stdout)
        n = int(m.group(1)) if m else -1
        run_.op(n == records, "analyze.frames_reconcile",
                "%d frames analyzed, %d pcap records" % (n, records))
        csvs = files_of(csv)
        shutil.rmtree(csv, ignore_errors=True)
        if first is None:
            first = csvs
        run_.op(csvs == first and len(csvs) == 2, "analyze.csv_identical")
        raw_walls.append(wall)
        walls.append(wall * scale)
        gcs.append(gc_totals(stderr))
        if not args.trace:
            for _ in range(DISSECT_OPS_PER_JOB):
                w, out, _, code = run([CLI, "dissect", "-n", "20", excerpt], work)
                latencies.append(w * scale)
                if dissect_out is None:
                    dissect_out = out
                run_.op(code == 0 and out == dissect_out
                        and out.startswith("%d packets" % cfg["excerpt"]),
                        "analyze.dissect_identical")
    if not walls:
        return inputs, None
    if args.trace:
        d = os.path.join(work, "traced")
        os.makedirs(d)
        wall, stdout, stderr, code = run([PB, "analyze-trace", pcap, d], work)
        run_.op(code == 0, "analyze.traced_exit", stderr[-500:])
        if code != 0:
            return inputs, None
        if args.corrupt == "analyze-traced-csv":
            corrupt_file(os.path.join(d, "occurrence.csv"))
        res = parse_pb(stdout)
        run_.op(files_of(d) == first, "analyze.traced_csv_identical",
                "traced mirror vs CLI")
        bases = {"dissect.overlay_share": (res["metric"]["dissect.overlay_classified"],
                                           "frames overlay-classified",
                                           res["metric"]["items"], "pcap records")}
        return inputs, (res, statistics.median(raw_walls), bases)
    log_calibration(run_.kernels)
    wall = statistics.median(walls)
    run_.metrics["wall_s"] = wall
    run_.metrics["items_per_s"] = records / wall
    run_.metrics["alloc_words_per_item"] = gcs[0]["allocated_words"] / records
    run_.metrics["peak_heap_mb"] = gcs[0]["top_heap_words"] * WORD_BYTES / 1e6
    # Allocation and heap totals repeat exactly at one domain only; with
    # more, the major heap's peak depends on how the domains interleave.
    domains = program_info().get("domains", "?")
    if domains == "1":
        run_.check(all(g == gcs[0] for g in gcs), "analyze.gc_repeat",
                   "allocation and heap totals identical across %d jobs" % len(gcs))
    else:
        log("analyze: %s domains, so allocation and heap totals are not checked for "
            "an exact repeat (%d distinct over %d jobs)"
            % (domains, len({tuple(sorted(g.items())) for g in gcs}), len(gcs)))
    latency_metrics(latencies, run_.metrics)
    log("analyze: %d jobs, median %.3f s raw (min %.3f, max %.3f), %.3f s calibrated"
        % (len(walls), statistics.median(raw_walls), min(raw_walls), max(raw_walls),
           wall))
    return inputs, None


# --- store ---------------------------------------------------------------


def workload_store(args, cfg, work, run_):
    rounds = max(3, round(args.seconds / cfg["unit_s"]))
    if args.trace:
        rounds = 3
    d = os.path.join(work, "store")
    os.makedirs(d)
    extra = {"PERFBENCH_CORRUPT": args.corrupt} if args.corrupt else None
    _, stdout, stderr, code = run(
        [PB, "store", str(args.seed), str(cfg["groups"]), str(rounds),
         str(cfg["ops_per_round"]), d, "1" if args.trace else "0"], work,
        extra_env=extra)
    if code != 0:
        raise BenchError("store workload failed:\n" + stderr[-2000:])
    res = parse_pb(stdout)
    mt = res["metric"]
    for name, ok, detail in res["check"]:
        run_.check(ok, name, detail)
    run_.attempted += int(mt["attempted"])
    run_.failed += int(mt["failed"])
    items = mt["items"]
    inputs = ("%d flow records in %d sample groups, %d telemetry points; "
              "%d rounds of ingest + %d read ops"
              % (items, cfg["groups"], mt["points"], rounds, cfg["ops_per_round"]))
    rounds_ = [tuple(map(float, l.split()[1:])) for l in stdout.splitlines()
               if l.startswith("round ")]
    run_.kernels += [k for _, _, _, k in rounds_]
    scale = {int(i): KERNEL_REF_S / k for i, _, _, k in rounds_}
    setups = [tuple(map(float, l.split()[1:])) for l in stdout.splitlines()
              if l.startswith("setup ")]
    run_.kernels += [k for _, k in setups]
    run_.metrics["setup_s"] = statistics.median(t * KERNEL_REF_S / k for t, k in setups)
    log("set-up: %d runs, median %.3f s raw, %.3f s calibrated"
        % (len(setups), statistics.median(t for t, _ in setups), run_.metrics["setup_s"]))
    if args.trace:
        returned, scanned = mt["analysis.flows_returned"], mt["analysis.records_scanned"]
        bases = {"analysis.query_scan_ratio": (returned, "flows returned",
                                               scanned, "records scanned")}
        return inputs, (res, mt["untraced_wall_s"], bases)
    log_calibration(run_.kernels)
    wall = statistics.median(w * scale[int(i)] for i, _, w, _ in rounds_)
    ingest = statistics.median(g * scale[int(i)] for i, g, _, _ in rounds_)
    log("store: %d rounds, median round %.3f s raw, %.3f s calibrated; median ingest "
        "%.3f s raw, %.3f s calibrated" % (len(rounds_), mt["wall_s"], wall,
                                           mt["ingest_s"], ingest))
    run_.metrics["wall_s"] = wall
    run_.metrics["items_per_s"] = items / ingest
    run_.metrics["alloc_words_per_item"] = mt["alloc_words"] / items
    run_.metrics["peak_heap_mb"] = mt["peak_heap_words"] * WORD_BYTES / 1e6
    by_kind = {}
    for kind, s, _ in res["op"]:
        by_kind.setdefault(kind, []).append(s * 1000.0)
    for kind, xs in sorted(by_kind.items()):
        log("  %-18s %4d ops, median %.3f ms raw" % (kind, len(xs), statistics.median(xs)))
    latency_metrics([s * scale[r] for _, s, r in res["op"]], run_.metrics)
    return inputs, None


# --- traced-run report ---------------------------------------------------


def layer_report(traced, run_):
    res, untraced_wall, bases = traced
    rows = res["layer"]
    mt = res["metric"]
    traced_wall = mt["traced_wall_s"]
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    log("traced run: one row per layer metric (self time and minor words)")
    log("  %-30s %8s %12s %16s" % ("metric", "count", "self s", "minor words"))
    total = 0.0
    for name, (count, self_s, words) in rows.items():
        log("  %-30s %8d %12.6f %16.0f" % (name, count, self_s, words))
        metrics[name] = self_s
        total += self_s
        if name in WORD_ROWS:
            metrics[WORD_ROWS[name]] = words
    unattributed = traced_wall - total
    log("  %-30s %8s %12.6f" % ("unattributed_s", "-", unattributed))
    log("  %-30s %8s %12.6f  (rows + unattributed)" % ("traced_wall_s", "-", traced_wall))
    for name in ("core.ledger_violations", "traffic.flows_spawned", "simcore.events",
                 "obs.tsdb_records_scanned", "parallel.pool_busy_s"):
        if name in mt:
            metrics[name] = mt[name]
            log("  %-30s %g" % (name, mt[name]))
    for name, (num, num_what, den, den_what) in bases.items():
        metrics[name] = num / den if den else 0.0
        log("  %-30s %.6g  (%g %s / %g %s)"
            % (name, metrics[name], num, num_what, den, den_what))
    metrics["traced_wall_s"] = traced_wall
    metrics["unattributed_s"] = unattributed
    metrics["tracing_overhead_s"] = traced_wall - untraced_wall
    log("tracing_overhead_s = %.6f (traced wall %.6f - median untraced wall %.6f)"
        % (traced_wall - untraced_wall, traced_wall, untraced_wall))
    run_.metrics = metrics


# --- main ----------------------------------------------------------------

# Outputs the self-test may damage (--corrupt), one per kind of check.
CORRUPTIONS = ["weekly-csv", "weekly-ledger", "weekly-traced-csv", "analyze-csv",
               "analyze-traced-csv", "store-oracle"]

WORKLOADS = {"weekly": workload_weekly, "analyze": workload_analyze,
             "store": workload_store}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="input sizes; smoke is for the self-test")
    ap.add_argument("--corrupt", default=None, choices=CORRUPTIONS,
                    help="self-test only: damage the named output or oracle")
    args = ap.parse_args()
    # On SIGTERM, unwind: subprocess.run kills and reaps the running child
    # and the finally clause below removes the work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    cfg = SIZES[args.size][args.workload]
    # Fixed-width name: the paths handed to the program have the same
    # length in every run, and so do the words allocated for them.
    work = os.path.join("perfbench", "_work", "%s-%07d" % (args.workload, os.getpid()))
    try:
        build()
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        run_ = Run()
        inputs, traced = WORKLOADS[args.workload](args, cfg, work, run_)
        provenance(args.seed, args.workload, inputs)
        if args.trace:
            if traced is None:
                raise BenchError("traced run produced no layer figures")
            layer_report(traced, run_)
            names = PER_LAYER
        else:
            names = END_TO_END
        if run_.attempted == 0:
            raise BenchError("no operation was attempted")
        missing = [n for n, _ in names if n not in run_.metrics]
        if missing:
            raise BenchError("metrics missing: %s" % ", ".join(missing))
        log("checks: %d ops attempted, %d failed; %d checks, %d failed"
            % (run_.attempted, run_.failed, len(run_.checks),
               sum(1 for _, ok, _ in run_.checks if not ok)))
        for name, unit in names:
            log("  %-30s %.6g %s" % (name, run_.metrics[name], unit))
        result = {
            "correct": run_.correct(),
            "attempted": run_.attempted,
            "failed": run_.failed,
            "metrics": {n: {"value": run_.metrics[n], "unit": u} for n, u in names},
        }
        print(json.dumps(result), flush=True)
        return 0
    except BenchError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        parent = os.path.dirname(work)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)


if __name__ == "__main__":
    sys.exit(main())
