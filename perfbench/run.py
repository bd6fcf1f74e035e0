#!/usr/bin/env python3
"""The market benchmark: one command for the browse, purchase and listing
workloads (see README.md next to this file).

    python3 perfbench/run.py --workload browse --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. It builds the library, the
catalog shard and the benchmark's own load generator from source into
.bench_build/ (or $CARGO_TARGET_DIR), keeps its run files under
.bench_run/, prints report lines, and prints as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end metrics, with --trace 1 its
per_layer metrics. Exit status is 0 only when the run completed; an output
check that fails makes "correct" false.
"""

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# Both wire workloads run against the same shard configuration: the
# synthetic zipf catalog, fulfillment on, 90-dimensional models, epoll
# transport, two event loops, and the sale ledger and catalog journal
# under the run directory. Records reach the page cache before a sale is
# acked but are not fdatasync'd: that is the kill -9 durability domain,
# and a disk's fsync latency would otherwise decide the purchase median.
# The model cache holds a few hundred models, well below the purchase
# workload's BUY working set, so misses (and the ridge training behind
# them) recur at a steady rate.
SERVER = {
    "curves": 100000,
    "min-knots": 8,
    "max-knots": 128,
    "model-dim": 90,
    "model-cache-bytes": 200000,
    "loops": 2,
    "transport": "epoll",
    "wal-fsync": "none",
}

# Per workload: the generator's request mix, its fixed rate (requests/s,
# below the knee on the reference host: 4-core KVM guest), the max_rps
# ladder and the p99 latency limit a ladder rung must meet.
WORKLOADS = {
    "browse": {
        "kind": "wire",
        "xs": 1,
        "budget-pct": 10,
        # Near 70% of what the serving loop answers one request at a time:
        # it never idles long enough to go cold, and never falls behind
        # far enough to start answering in batches, where the median
        # jumps between the two regimes.
        "rate": 50000,
        "ladder": [100000 * 1.25 ** k for k in range(14)],
        "limit-us": 5000,
    },
    "purchase": {
        "kind": "wire",
        "xs": 64,
        "buy-pct": 25,
        "retry-pct": 3,
        # One request in 50 comes from the mix above, 300 a second; the
        # others are point PRICE_AT browsing around it, which keeps the
        # serving loop awake (see Stream::Next in src/wire.cc). Rates and
        # the ladder count both.
        "mix-every": 50,
        "rate": 15000,
        # A BUY that misses the model cache trains its model under the
        # cache's lock, so the knee is set by training queueing up behind
        # training.
        "ladder": [50000 * 1.2 ** k for k in range(8)],
        "limit-us": 100000,
    },
    "listing": {
        "kind": "listing",
        # Table-3 stand-ins at this fraction of the paper's sizes.
        "scale": 0.0005,
        "trials": 2000,
    },
}

# Set-ups per run; setup_s is their median. A listing set-up is one
# process start (tens of milliseconds), so it takes more of them.
SETUPS = 3
LISTING_SETUPS = 7
READY_TIMEOUT_S = 120


def log(msg):
    print(msg, flush=True)


def derive(seed, what):
    """A sub-seed of --seed for one input (< 2^31: exact through any
    flag parser)."""
    digest = hashlib.sha256(f"{seed}:{what}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


class BenchError(Exception):
    pass


def run_logged(cmd, logfile, cwd=None):
    with open(logfile, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        code = subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                               cwd=cwd)
    if code != 0:
        raise BenchError(f"command failed ({code}): {' '.join(cmd)}; "
                         f"see {logfile}")


def build(root, build_dir):
    """Builds and installs the library + tools, then the benchmark package
    against the installed library. Incremental after the first run."""
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(root, needed)):
            raise BenchError(f"not a source checkout: {needed} missing "
                             f"under {root}")
    os.makedirs(build_dir, exist_ok=True)
    logfile = os.path.join(build_dir, "build.log")
    lib_build = os.path.join(build_dir, "mbp")
    prefix = os.path.join(build_dir, "install")
    bench_build = os.path.join(build_dir, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(lib_build, "CMakeCache.txt")):
        run_logged(["cmake", "-S", root, "-B", lib_build,
                    "-DCMAKE_BUILD_TYPE=Release",
                    "-DMBP_BUILD_TESTS=OFF", "-DMBP_BUILD_BENCHMARKS=OFF",
                    "-DMBP_BUILD_EXAMPLES=OFF",
                    f"-DCMAKE_INSTALL_PREFIX={prefix}"], logfile)
    run_logged(["cmake", "--build", lib_build, "-j", jobs], logfile)
    run_logged(["cmake", "--install", lib_build], logfile)
    if not os.path.exists(os.path.join(bench_build, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", bench_build,
                    "-DCMAKE_BUILD_TYPE=Release",
                    f"-DCMAKE_PREFIX_PATH={prefix}"], logfile)
    run_logged(["cmake", "--build", bench_build, "-j", jobs], logfile)
    return {
        "shard": os.path.join(lib_build, "tools", "mbp_catalog_shard"),
        "load": os.path.join(bench_build, "perfbench_load"),
        "cache": os.path.join(lib_build, "CMakeCache.txt"),
    }


def cpu_split():
    """Shard CPUs and generator CPUs: disjoint halves of this process's
    CPU set (the shard's two event loops on the first two, the
    generator's two threads on the next two)."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 4:
        return cpus[:2], cpus[2:4]
    if len(cpus) >= 2:
        half = len(cpus) // 2
        return cpus[:half], cpus[half:]
    return cpus, cpus


def pinned(cpus):
    return lambda: os.sched_setaffinity(0, cpus)


class IdlePoll:
    """One idle-priority busy loop per CPU in `cpus`, so those CPUs never
    halt. A guest CPU with nothing to run halts, and the host takes tens to
    hundreds of microseconds to resume it when a packet arrives for the
    shard, depending on what else the host runs: that wake-up decided the
    wire workloads' latency medians, not the program. A SCHED_IDLE task
    gives way at once to any other task that wakes on its CPU, and its CPU
    time is not the shard's, so the shard's own work and CPU figures are
    unchanged; the CPUs behave as under the kernel's idle=poll."""

    def __init__(self, binary, cpus):
        self.procs = []
        try:
            for cpu in cpus:
                self.procs.append(subprocess.Popen(
                    [binary, "idle-poll"], stdin=subprocess.DEVNULL,
                    preexec_fn=pinned([cpu])))
        except BaseException:
            self.stop()
            raise

    def stop(self):
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
        for proc in self.procs:
            proc.wait()
        self.procs = []


def read_line(proc, timeout_s, prefix):
    """Reads stdout lines of `proc` until one starts with `prefix`."""
    deadline = time.monotonic() + timeout_s
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"timed out waiting for {prefix}")
        ready, _, _ = select.select([proc.stdout], [], [], remaining)
        if not ready:
            continue
        line = proc.stdout.readline()
        if not line:
            raise BenchError(f"process exited before {prefix}")
        if line.startswith(prefix):
            return line.strip()


def parse_kv(line):
    out = {}
    for token in line.split()[1:]:
        if "=" in token:
            key, value = token.split("=", 1)
            out[key] = value
    return out


def parse_result(text):
    for line in reversed(text.splitlines()):
        if line.startswith("RESULT "):
            return json.loads(line[len("RESULT "):])
    raise BenchError("generator printed no RESULT line")


class Shard:
    """One mbp_catalog_shard process; stdin EOF drains it."""

    def __init__(self, binary, catalog_seed, wal_dir, fsync, cpus, logfile,
                 seed):
        cmd = [binary, f"--curves={SERVER['curves']}",
               f"--seed={catalog_seed}",
               f"--min-knots={SERVER['min-knots']}",
               f"--max-knots={SERVER['max-knots']}",
               f"--loops={SERVER['loops']}",
               f"--transport={SERVER['transport']}",
               f"--model-dim={SERVER['model-dim']}",
               f"--model-cache-bytes={SERVER['model-cache-bytes']}",
               f"--epoch-seed={derive(seed, 'epoch')}",
               f"--dataset-seed={derive(seed, 'dataset')}",
               f"--wal-dir={wal_dir}", f"--wal-fsync={fsync}"]
        self.stderr = open(logfile, "a")
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     stderr=self.stderr, text=True,
                                     preexec_fn=pinned(cpus))
        try:
            self.ready = parse_kv(
                read_line(self.proc, READY_TIMEOUT_S, "READY"))
            self.port = int(self.ready["port"])
        except (BenchError, KeyError, ValueError):
            self.kill()
            raise

    def drain(self):
        """Graceful shutdown; returns the DRAIN line's fields."""
        self.proc.stdin.close()
        try:
            line = read_line(self.proc, 60, "DRAIN")
            self.proc.wait(timeout=60)
        finally:
            self.kill()
        if self.proc.returncode != 0:
            raise BenchError(f"shard exited {self.proc.returncode}")
        return parse_kv(line)

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.stderr.close()


def wire_flags(name, config, seed, catalog_seed, port, args, workdir,
               server_pid):
    shard_cpus = cpu_split()[0]
    flags = [f"--workload={name}", f"--port={port}", f"--seed={seed}",
             f"--trace={args.trace}",
             f"--server-pid={server_pid}", f"--workdir={workdir}",
             f"--curves={SERVER['curves']}",
             f"--catalog-seed={catalog_seed}",
             f"--min-knots={SERVER['min-knots']}",
             f"--max-knots={SERVER['max-knots']}",
             f"--model-dim={SERVER['model-dim']}",
             f"--model-cache-bytes={SERVER['model-cache-bytes']}",
             f"--epoch-seed={derive(seed, 'epoch')}",
             f"--dataset-seed={derive(seed, 'dataset')}",
             f"--rate={config['rate']}",
             "--ladder=" + ",".join(f"{r:.0f}" for r in config["ladder"]),
             f"--limit-us={config['limit-us']}",
             "--shard-cpus=" + ",".join(map(str, shard_cpus))]
    for key in ("xs", "budget-pct", "buy-pct", "retry-pct", "mix-every"):
        if key in config:
            flags.append(f"--{key}={config[key]}")
    return flags


def run_wire(name, config, args, bins, workdir, report):
    shard_cpus, gen_cpus = cpu_split()
    # Only when the generator has CPUs of its own: its polling loop yields,
    # and a yield may hand its CPU to an idle-priority loop.
    poll_cpus = [] if set(shard_cpus) & set(gen_cpus) else shard_cpus
    report["cpus.idle_poll"] = poll_cpus
    idle_poll = IdlePoll(bins["load"], poll_cpus)
    try:
        return run_shards(name, config, args, bins, workdir, report,
                          shard_cpus, gen_cpus)
    finally:
        idle_poll.stop()


def run_shards(name, config, args, bins, workdir, report, shard_cpus,
               gen_cpus):
    catalog_seed = derive(args.seed, "catalog")
    wal_dir = os.path.join(workdir, "wal")
    logfile = os.path.join(workdir, "shard.log")
    report["cpus.shard"] = shard_cpus
    report["cpus.generator"] = gen_cpus

    # Provision: a fresh shard journals the whole catalog once (fsync
    # off: this is the one-time listing of the catalog, not the set-up
    # being measured), then drains to a clean checkpoint.
    t0 = time.monotonic()
    Shard(bins["shard"], catalog_seed, wal_dir, "none", shard_cpus, logfile,
          args.seed).drain()
    report["provision_s"] = time.monotonic() - t0

    # Set-up, several times: restart over the journal and ledger (catalog
    # compile from the journal, WAL recovery) to READY, then one round
    # trip of every verb the workload sends. Each restarted shard then
    # takes a fixed-rate phase of its own: what a shard process happens to
    # get (its memory, its place on the host) persists for its lifetime,
    # so the latency and CPU figures are medians over the three shards.
    # The last shard also climbs the max_rps ladder. A traced run measures
    # on the last shard only.
    setups, results, checks = [], [], []
    shard = None
    try:
        for k in range(SETUPS):
            last = k + 1 == SETUPS
            t0 = time.monotonic()
            shard = Shard(bins["shard"], catalog_seed, wal_dir,
                          SERVER["wal-fsync"], shard_cpus, logfile,
                          args.seed)
            flags = wire_flags(name, config, args.seed, catalog_seed,
                               shard.port, args, workdir, shard.proc.pid)
            code = subprocess.call([bins["load"], "probe"] + flags,
                                   preexec_fn=pinned(gen_cpus), timeout=60)
            if code != 0:
                raise BenchError(f"probe failed ({code})")
            setups.append(time.monotonic() - t0)
            report["recovery_ms"] = shard.ready.get("recovery_ms")
            if args.trace and not last:
                shard.drain()
                shard = None
                continue
            if args.trace:
                phases = [f"--fixed-s={0.35 * args.seconds}"]
            else:
                phases = [f"--fixed-s={0.3 * args.seconds}",
                          f"--ladder-s={0.35 * args.seconds if last else 0}"]
            gen = subprocess.run([bins["load"], "wire"] + flags + phases +
                                 [f"--run-index={k}"],
                                 preexec_fn=pinned(gen_cpus),
                                 stdout=subprocess.PIPE, text=True,
                                 timeout=args.seconds * 4 + 120)
            sys.stdout.write(gen.stdout)
            if gen.returncode != 0:
                raise BenchError(f"generator exited {gen.returncode}")
            result = parse_result(gen.stdout)
            drain = shard.drain()
            shard = None
            results.append(result)
            # The DRAIN line is the ledger's own account at shutdown: it
            # must match what STATS reported after the last sale.
            if name == "purchase":
                checks.append((
                    f"shard {k + 1}: DRAIN revenue/sales equal STATS",
                    float(drain["revenue"]) == result["check.server_revenue"]
                    and int(drain["sales"]) == int(result["check.server_sales"])))
        report["setup_samples_s"] = setups
    finally:
        if shard is not None:
            shard.kill()
        # The journal holds the whole catalog (~100 MB): keep only the
        # small files (logs, traces).
        for big in ("wal", "replay-wal"):
            shutil.rmtree(os.path.join(workdir, big), ignore_errors=True)

    # Per-run figures: medians over the shards; counts add up; the ladder
    # and the traced layers come from the last shard.
    combined = dict(results[-1])
    for key in ("op_p50_us", "cpu_us_per_op", "peak_rss_mb", "price_p50_us",
                "price_p99_us", "buy_p50_us", "buy_p99_us"):
        combined[key] = statistics.median(r[key] for r in results)
    for key in ("attempted", "failed", "check.failures"):
        combined[key] = sum(r[key] for r in results)
    report["op_p50_us_per_shard"] = [r["op_p50_us"] for r in results]
    combined["setup_s"] = statistics.median(setups)
    return combined, checks


def run_listing(config, args, bins, workdir, report):
    cpus = sorted(os.sched_getaffinity(0))
    threads = min(4, len(cpus))
    report["cpus.listing"] = cpus
    report["listing_threads"] = threads
    flags = [f"--seed={args.seed}", f"--seconds={args.seconds}",
             f"--trace={args.trace}", f"--workdir={workdir}",
             f"--scale={config['scale']}", f"--trials={config['trials']}",
             f"--threads={threads}"]
    setups = []
    output = ""
    for k in range(LISTING_SETUPS):
        last = k + 1 == LISTING_SETUPS
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [bins["load"], "listing"] + flags +
            ([] if last else ["--setup-only=1"]),
            stdout=subprocess.PIPE, text=True)
        try:
            read_line(proc, READY_TIMEOUT_S, "READY")
            setups.append(time.monotonic() - t0)
            output, _ = proc.communicate(timeout=args.seconds * 4 + 120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"listing exited {proc.returncode}")
    sys.stdout.write(output)
    report["setup_samples_s"] = setups
    result = parse_result(output)
    result["setup_s"] = statistics.median(setups)
    return result, []


def provenance(root, bins, workdir):
    info = {"nproc": len(os.sched_getaffinity(0))}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=root,
                               capture_output=True, text=True, timeout=10)
        info["git"] = (sha.stdout.strip() +
                       ("+dirty" if dirty.stdout.strip() else "")
                       if sha.returncode == 0 else "unknown (not a git tree)")
    except (OSError, subprocess.SubprocessError):
        info["git"] = "unknown"
    cache = {}
    with open(bins["cache"]) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.strip().split("=", 1)
                cache[key.split(":")[0]] = value
    info["build_type"] = cache.get("CMAKE_BUILD_TYPE", "")
    info["fault_injection_compiled"] = cache.get("MBP_FAULT_INJECTION", "")
    info["avx2_compiled"] = cache.get("MBP_ENABLE_AVX2", "")
    simd = subprocess.run([bins["load"], "provenance"], capture_output=True,
                          text=True, timeout=30)
    info["simd_level"] = simd.stdout.strip().split("=", 1)[-1]
    info["transport"] = SERVER["transport"]
    info["wal_fsync"] = SERVER["wal-fsync"]
    info["wal_device"] = mount_of(workdir)
    return info


def mount_of(path):
    """Filesystem type and device the run directory sits on."""
    path = os.path.realpath(path)
    best = ("", "?", "?")
    try:
        with open("/proc/mounts") as f:
            for line in f:
                dev, mnt, fstype = line.split()[:3]
                if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) \
                        and len(mnt) >= len(best[0]):
                    best = (mnt, dev, fstype)
    except OSError:
        pass
    return f"{best[2]} on {best[1]} ({best[0]})"


def load_spec():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for name in names:
        ok = (0 < len(name) <= 64 and name[0].isalnum() and name.isascii()
              and all(c.isalnum() or c in "_.-" for c in name))
        if not ok:
            raise BenchError(f"invalid metric name {name!r}")
    return spec


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run still drains or kills the processes it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    try:
        spec = load_spec()
        build_dir = os.path.join(
            root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        bins = build(root, build_dir)
        workdir = os.path.join(root, ".bench_run",
                               f"{args.workload}-{args.seed}-{os.getpid()}")
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        report = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace}
        report.update(provenance(root, bins, workdir))
        config = WORKLOADS[args.workload]
        if config["kind"] == "wire":
            result, checks = run_wire(args.workload, config, args, bins,
                                      workdir, report)
        else:
            result, checks = run_listing(config, args, bins, workdir, report)
    except (BenchError, OSError, subprocess.SubprocessError, KeyError,
            ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    for what, ok in checks:
        if not ok:
            log(f"CHECK FAILED: {what}")
    correct = (all(ok for _, ok in checks) and result["check.failures"] == 0
               and result["failed"] == 0)
    attempted = int(result["attempted"])
    failed = int(result["failed"]) + sum(1 for _, ok in checks if not ok)
    result["error_rate"] = failed / attempted if attempted else 1.0
    # The report's name for the shard's CPU per request.
    result["server_cpu_us_per_op"] = result.get("cpu_us_per_op", 0.0)

    log("PROVENANCE " + json.dumps(report, sort_keys=True))
    units = {"setup_s": "s", "price_p50_us": "us", "price_p99_us": "us",
             "buy_p50_us": "us", "buy_p99_us": "us", "max_rps": "1/s",
             "error_rate": "ratio", "server_cpu_us_per_op": "us",
             "peak_rss_mb": "MB", "list_menu_s": "s",
             "menu_revenue": "price"}
    applies = {"browse": ["setup_s", "price_p50_us", "price_p99_us",
                          "max_rps", "error_rate", "server_cpu_us_per_op",
                          "peak_rss_mb"],
               "purchase": ["setup_s", "price_p50_us", "price_p99_us",
                            "buy_p50_us", "buy_p99_us", "max_rps",
                            "error_rate", "server_cpu_us_per_op",
                            "peak_rss_mb"],
               "listing": ["setup_s", "list_menu_s", "menu_revenue",
                           "error_rate", "peak_rss_mb"]}[args.workload]
    for name in applies:
        if name == "max_rps" and args.trace:
            continue  # the traced run skips the ladder
        log(f"METRIC {name} = {result.get(name, 0.0):.6g} {units[name]}")

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": float(result.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
