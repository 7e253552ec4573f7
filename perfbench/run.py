#!/usr/bin/env python3
"""End-to-end benchmark of tgdkit: CLI chase/certain/explain and serve.

    python3 perfbench/run.py --workload closure --seed 1 --seconds 15 --trace 0

Run from the repository root. The first run builds `tgdkit` and the
layer tool from source into $CARGO_TARGET_DIR (default .bench_build).
With --trace 0 every operation goes through the real `tgdkit` binary and
the end-to-end metrics are printed; with --trace 1 the layer tool calls
each layer's functions in-process and the per-layer metrics are printed.
Either way the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. `--workload all` runs the
four workloads one after another and prints one such line per workload.
See perfbench/README.md for the workloads, metrics and reference figures.
"""

import argparse
import gc
import hashlib
import json
import os
import random
import re
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import oracle  # noqa: E402

ROOT = os.path.dirname(HERE)
WORKLOADS = ["closure", "exchange", "deep", "serve"]
LANES = min(4, os.cpu_count() or 1)
SERVE_CONNECTIONS = 2
SERVE_REQUESTS_PER_ROUND = 1500
# The serve mix. One request in three repeats an earlier one exactly, the
# share of shared requests tools/serve_replay.py sends. The ping share is
# an assumption, not taken from any recorded traffic.
SERVE_REPEAT_EVERY = 3
SERVE_PING_PERCENT = 10
# A small result cache, so that it fills within the first rounds. The
# traced run's in-process server uses the same size.
SERVE_CACHE_MB = 4
# The daemon's RSS keeps growing with every request it answers, so its
# peak is read after this many rounds (a fixed number of requests) rather
# than at the end, where it would depend on how many rounds fit in a run.
DAEMON_RSS_ROUNDS = 4
SETUP_REPEATS = 9           # setup_s is the median of this many set-ups
# The checkpointed chase snapshots every 1/CHECKPOINT_PARTS of the 1-lane
# run's governor steps, so every chase writes several periodic snapshots
# whatever its size.
CHECKPOINT_PARTS = 4
OP_TIMEOUT_S = 120
# 40 rulesets per src/gen shape family. The costliest percent of the
# mix sets serve_p99_ms; drawn from this many rulesets, it is about the
# same for every seed.
ADVERSARIAL_COUNT = 200
# The daemon and the serve client share one CPU. A closed loop of sub-ms
# requests hands every request from client to server thread to worker
# and back; spread over several vCPUs, each handoff may wait for the
# hypervisor to wake a halted vCPU, and that wait, not the request, then
# sets the latency and moves with the host's load. On one CPU the loop
# never idles and every handoff is a local context switch.
ALL_CPUS = os.sched_getaffinity(0)
SERVE_CPUS = {max(ALL_CPUS)}
# classify probes chase termination on the critical instance. With the
# default probe budget (200000 facts, depth 32) one src/gen ruleset can
# take ~10 s, close to the daemon's 10 s default deadline, and a few take
# ~130 ms, which would make the latency tail depend on which rulesets a
# seed draws. A small probe budget keeps every classify request cheap and
# its reply independent of timing.
CLASSIFY_ARGS = ["deps.tgd", "--max-facts", "200", "--max-depth", "8"]

END_TO_END = [("setup_s", "s"), ("chase_s", "s"), ("chase_par_s", "s"),
              ("certain_s", "s"), ("explain_s", "s"), ("checkpoint_s", "s"),
              ("resume_s", "s"), ("peak_rss_mb", "MB"),
              ("cli_peak_rss_mb", "MB"),
              ("serve_p50_ms", "ms"), ("serve_p99_ms", "ms"),
              ("serve_rps", "req/s")]


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


# ----------------------------------------------------------------- build


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(ROOT, path))


def build():
    """Builds tgdkit and the layer tool; returns their paths."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: tgdkit sources not found next to "
                         "perfbench/ (run from a full checkout)")
    out = os.path.join(build_dir(), "cmake")
    # Configured every time, so a build tree made before a target was
    # added learns of it.
    subprocess.run(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                    "--target", "tgdkit_cli", "perfbench_layers",
                    "perfbench_spawn"],
                   check=True, stdout=sys.stderr)
    return {"tgdkit": os.path.join(out, "tgdkit", "tools", "tgdkit"),
            "layers": os.path.join(out, "perfbench_layers"),
            "spawn": os.path.join(out, "perfbench_spawn")}


def adversarial_rulesets(binaries, seed):
    """Rulesets from the five src/gen adversarial shape families."""
    proc = subprocess.run([binaries["layers"], "adversarial", str(seed),
                           str(ADVERSARIAL_COUNT)],
                          check=True, capture_output=True, text=True)
    return [json.loads(line) for line in proc.stdout.splitlines() if line]


# --------------------------------------------------------------- process


class Spawned:
    """One finished child: wall seconds, exit code, peak RSS in KiB."""

    def __init__(self, seconds, code, rss_kb, out_path):
        self.seconds, self.code, self.rss_kb = seconds, code, rss_kb
        self.out_path = out_path

    def text(self):
        with open(self.out_path) as handle:
            return handle.read()

    def data(self):
        with open(self.out_path, "rb") as handle:
            return handle.read()


class Launcher:
    """perfbench_spawn (spawn.cc), which runs every tgdkit process of the
    benchmark and reports its wall time, exit code and ru_maxrss. A
    child's ru_maxrss includes the peak RSS of the process it was forked
    from, so children of this Python process would report at least its
    RSS; the native launcher's is about 1 MB."""

    def __init__(self, path):
        self.proc = subprocess.Popen([path], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def spawn(self, argv, out_path, cwd, timeout, env):
        lines = [str(timeout), cwd, out_path, str(len(env))]
        lines += [f"{key}={value}" for key, value in env.items()]
        lines += [str(len(argv))] + argv
        self.proc.stdin.write("".join(line + "\n" for line in lines))
        self.proc.stdin.flush()
        seconds, code, rss_kb = self.proc.stdout.readline().split()
        return float(seconds), int(code), int(rss_kb)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


LAUNCHER = None


def spawn(argv, out_path, cwd, timeout=OP_TIMEOUT_S, env=None):
    """Runs argv with stdout to out_path and stderr to out_path.err, with
    `env` added to the environment."""
    argv = [os.path.abspath(argv[0])] + argv[1:]
    out_path, cwd = os.path.abspath(out_path), os.path.abspath(cwd)
    result = LAUNCHER.spawn(argv, out_path, cwd, timeout, env or {})
    return Spawned(*result, out_path)


def _kill(pid):
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# ----------------------------------------------------------------- serve


class Daemon:
    """`tgdkit serve` on a Unix socket inside the work directory."""

    def __init__(self, tgdkit, work):
        self.work = work
        self.sock = os.path.relpath(os.path.join(work, "serve.sock"))
        if os.path.exists(self.sock):
            os.unlink(self.sock)
        start = time.perf_counter()
        out = open(os.path.join(work, "serve.out"), "w")
        err = open(os.path.join(work, "serve.err"), "w")
        self.proc = subprocess.Popen(
            [tgdkit, "serve", "--socket", "serve.sock", "--serve-threads",
             str(SERVE_CONNECTIONS), "--cache-mb", str(SERVE_CACHE_MB)],
            cwd=work, stdout=out, stderr=err,
            preexec_fn=lambda: os.sched_setaffinity(0, SERVE_CPUS))
        out.close()
        err.close()
        deadline = start + 30
        while True:
            try:
                probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                probe.connect(self.sock)
                probe.close()
                break
            except OSError:
                probe.close()
                if self.proc.poll() is not None or time.perf_counter() > deadline:
                    raise RuntimeError("tgdkit serve did not come up")
                time.sleep(0.0002)
        self.ready_s = time.perf_counter() - start

    def peak_rss_kb(self):
        """The daemon's peak RSS so far (VmHWM), in KiB. Not ru_maxrss:
        that would include the benchmark's own RSS (see Launcher)."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    def stop(self):
        """Drains the daemon; returns its exit code."""
        self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait()


def frame(req_id, command, args, files):
    return json.dumps({"id": req_id, "command": command, "args": args,
                       "file_names": [f[0] for f in files],
                       "file_contents": [f[1] for f in files]}) + "\n"


def closed_loop(sock_path, frames):
    """Sends frames over SERVE_CONNECTIONS connections, each with one
    request outstanding. Returns (wall seconds, [(latency s, response)])
    in frame order, plus the number of overloaded sheds retried. The
    client runs on the daemon's CPU while it sends."""
    os.sched_setaffinity(0, SERVE_CPUS)
    try:
        return _closed_loop(sock_path, frames)
    finally:
        os.sched_setaffinity(0, ALL_CPUS)


def _closed_loop(sock_path, frames):
    conns = []
    for _ in range(SERVE_CONNECTIONS):
        conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        conn.connect(sock_path)
        conns.append(conn)
    queues = [list(range(k, len(frames), SERVE_CONNECTIONS))
              for k in range(SERVE_CONNECTIONS)]
    cursor = [0] * SERVE_CONNECTIONS
    first_sent = {}
    buffers = [b""] * SERVE_CONNECTIONS
    results = [None] * len(frames)
    sheds = 0
    start = time.perf_counter()

    def send(k):
        if cursor[k] < len(queues[k]):
            index = queues[k][cursor[k]]
            first_sent.setdefault(index, time.perf_counter())
            conns[k].sendall(frames[index].encode())

    for k in range(SERVE_CONNECTIONS):
        send(k)
    pending = sum(len(q) for q in queues)
    by_fd = {conn.fileno(): k for k, conn in enumerate(conns)}
    while pending:
        ready, _, _ = select.select(conns, [], [], 60)
        if not ready:
            raise RuntimeError("serve stopped answering")
        for conn in ready:
            k = by_fd[conn.fileno()]
            chunk = conn.recv(1 << 20)
            if not chunk:
                raise RuntimeError("serve closed a connection")
            buffers[k] += chunk
            while b"\n" in buffers[k]:
                line, buffers[k] = buffers[k].split(b"\n", 1)
                now = time.perf_counter()
                index = queues[k][cursor[k]]
                response = json.loads(line)
                if response.get("status") == "overloaded":
                    sheds += 1
                    time.sleep(response.get("retry_after_ms", 1) / 1000)
                    send(k)
                    continue
                results[index] = (now - first_sent[index], response)
                cursor[k] += 1
                pending -= 1
                send(k)
    wall = time.perf_counter() - start
    for conn in conns:
        conn.close()
    return wall, results, sheds


class ServeMix:
    """The serve mix: a pool of base requests (each also run once through
    the one-shot CLI as the reference), pings, exact repeats of earlier
    requests (cache hits), and per-round 'fresh' copies made unique by a
    trailing comment so they miss the daemon's result cache while their
    answer stays the same."""

    def __init__(self, seed, pool):
        # Base requests: [(command, args, [(name, content)])]. Shares are
        # exact and every base request recurs in fixed proportion, so
        # every seed sends the same composition; the seed picks the
        # inputs and the order.
        self.pool = pool
        total = SERVE_REQUESTS_PER_ROUND
        pings = total * SERVE_PING_PERCENT // 100
        repeats = total // SERVE_REPEAT_EVERY
        self.plan = [("ping", None)] * pings
        self.plan += [("repeat", i % len(pool)) for i in range(repeats)]
        self.plan += [("fresh", i % len(pool))
                      for i in range(total - pings - repeats)]
        random.Random(f"serve-mix:{seed}").shuffle(self.plan)

    def warmup_frames(self):
        repeated = sorted({base for kind, base in self.plan
                           if kind == "repeat"})
        return [frame(f"w{i}", *self.pool[i]) for i in repeated]

    def round_frames(self, round_index, mark_fresh=True):
        """The frames of one round. Without `mark_fresh` the fresh
        requests are left unmarked (the layer tool marks them itself)."""
        frames = []
        for j, (kind, base) in enumerate(self.plan):
            req_id = f"r{round_index}.{j}"
            if kind == "ping":
                frames.append(frame(req_id, "ping", [], []))
                continue
            cmd, args, files = self.pool[base]
            if kind == "fresh" and mark_fresh:
                name, content = files[0]
                files = [(name, content + f"# fresh {round_index}.{j}\n")] + \
                    files[1:]
            frames.append(frame(req_id, cmd, args, files))
        return frames

    def reference(self, tgdkit, work):
        """One-shot CLI (exit, stdout, stderr) of every base request."""
        refs = []
        ref_dir = os.path.join(work, "ref")
        os.makedirs(ref_dir, exist_ok=True)
        for i, (cmd, args, files) in enumerate(self.pool):
            for name, content in files:
                with open(os.path.join(ref_dir, name), "w") as handle:
                    handle.write(content)
            out = os.path.join(work, f"ref{i}.out")
            res = spawn([tgdkit, cmd] + args, out, ref_dir)
            with open(out + ".err") as handle:
                refs.append((res.code, res.text(), handle.read()))
        return refs

    def check(self, results, refs):
        if len(results) != len(self.plan):
            return f"{len(results)} replies for {len(self.plan)} requests"
        for (kind, base), (_, response) in zip(self.plan, results):
            if response.get("status") != "ok":
                return f"serve refused a request: {response}"
            if kind == "ping":
                continue
            code, out, err = refs[base]
            got = (response.get("exit"), response.get("stdout"),
                   response.get("stderr"))
            if got != (code, out, err):
                return (f"serve reply to {self.pool[base][0]} differs from "
                        f"the one-shot CLI")
        return None


def read(path):
    with open(path) as handle:
        return handle.read()


def serve_pool(inputs):
    """The base requests of the serve mix: lint and classify of the
    exchange rules and of every adversarial ruleset, and `certain` on
    each exchange-shaped slice."""
    files = inputs["files"]
    pool = []
    for name in ["exchange.tgd"] + inputs["adversarial"]:
        rules = [("deps.tgd", read(files[name]))]
        pool.append(("lint", ["deps.tgd"], rules))
        pool.append(("classify", CLASSIFY_ARGS, rules))
    rules = [("deps.tgd", read(files["exchange.tgd"]))]
    for s in inputs["serve_slices"]:
        pool.append(("certain", ["deps.tgd", "data.facts", slice_query(s)],
                     rules + [("data.facts", read(files[s["file"]]))]))
    return pool


def slice_query(s):
    return f'ans(s) :- Section("{s["course"]}", x), Seated(x, s)'


# -------------------------------------------------------------- workloads


class Run:
    """Counters and per-round metric samples of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.rss_kb = 0
        self.samples = {}     # metric -> one value per round
        self.round = {}       # metric -> sum over the current round
        self.outputs = {}     # op key -> digest of its checked output

    def fail_check(self, what, reason):
        if reason is not None and self.correct:
            log(f"check failed: {what}: {reason}")
        if reason is not None:
            self.correct = False

    def add(self, metric, value):
        """Adds to the round's sum: a metric covering several runs of one
        op kind (deep's PCP instances, serve's slices) adds them up."""
        self.round[metric] = self.round.get(metric, 0.0) + value

    def end_round(self):
        for metric, total in self.round.items():
            self.samples.setdefault(metric, []).append(total)
        self.round = {}


def digest(data):
    return hashlib.sha256(data).hexdigest()


def normalize_threads(data):
    """The `# status:` line echoes threads=N; all else must match."""
    return re.sub(rb" threads=\d+", b" threads=N", data)


class Workload:
    """Runs one workload's rounds through the tgdkit binary."""

    def __init__(self, name, seed, binaries, work):
        self.name, self.seed = name, seed
        self.tgdkit = binaries["tgdkit"]
        self.binaries = binaries
        self.work = work
        self.run = Run()

    # -- set-up ----------------------------------------------------------

    def setup(self):
        times = []
        for _ in range(SETUP_REPEATS):
            if hasattr(self, "daemon"):
                self.daemon.stop()
            start = time.perf_counter()
            adversarial = adversarial_rulesets(self.binaries, self.seed)
            inputs = gen.generate(self.name, self.seed,
                                  os.path.join(self.work, "in"), adversarial)
            generated = time.perf_counter() - start
            self.daemon = Daemon(self.tgdkit, self.work)
            times.append(generated + self.daemon.ready_s)
        self.inputs = inputs
        self.files = inputs["files"]
        self.mix = ServeMix(self.seed, serve_pool(inputs))
        self.run.samples["setup_s"] = times
        self.prepare()
        self.refs = self.mix.reference(self.tgdkit, self.work)
        closed_loop(self.daemon.sock, self.mix.warmup_frames())

    def prepare(self):
        """Reference models for the output checks and the checkpoint
        cadences (not timed)."""
        if self.name == "closure":
            self.model = oracle.closure_model(self.inputs["edges"])
        elif self.name in ("exchange", "serve"):
            self.model = oracle.exchange_model(self.inputs["pairs"])
        self.cadence = self.checkpoint_cadence(*self.chase_job()[:4])

    def chase_job(self):
        """(rules, facts, limit args, expected exit, check) of the chase
        the workload runs."""
        f = self.files
        if self.name == "closure":
            edges, model = self.inputs["edges"], self.model
            return (f["closure.tgd"], f["closure.facts"], [], 0,
                    lambda t: oracle.check_closure_chase(t, edges, model))
        if self.name == "deep":
            start = self.inputs["start"]
            depth = gen.DEEP_CHAIN_CHASE_DEPTH
            return (f["chain.tgd"], f["chain.facts"],
                    ["--max-depth", str(depth)], 4,
                    lambda t: oracle.check_chain_chase(t, start, depth))
        model = self.model
        return (f["exchange.tgd"], f["exchange.facts"], [], 0,
                lambda t: oracle.check_exchange_chase(t, model))

    def checkpoint_cadence(self, rules, facts, limit_args, expect):
        """The --checkpoint-every-steps value of one chase: a
        CHECKPOINT_PARTS-th of its governor steps, as counted by the layer
        tool, which also counts the periodic snapshots that cadence fires.
        A check at set-up (not an op, so every run attempts the same ops
        per round) confirms that the CLI writes exactly those plus the
        final snapshot: with TGDKIT_CRASH_AT=n the n-th snapshot write
        kills the process, so it must die at that count and finish at one
        more."""
        depth = limit_args[-1] if limit_args else "256"
        plan = json.loads(subprocess.run(
            [self.binaries["layers"], "checkpoints", rules, facts, depth,
             str(CHECKPOINT_PARTS)],
            check=True, capture_output=True, text=True).stdout)
        writes = plan["periodic"] + 1
        argv = [self.tgdkit, "chase", rules, facts] + limit_args + [
            "--threads", "1", "--checkpoint",
            os.path.join(self.work, "probe.snap"),
            "--checkpoint-every-steps", str(plan["every"])]
        codes = [spawn(argv, os.path.join(self.work, "probe.out"),
                       os.path.join(self.work, "in"),
                       env={"TGDKIT_CRASH_AT": str(n),
                            "TGDKIT_CRASH_PHASE": "begin"}).code
                 for n in (writes, writes + 1)]
        self.run.fail_check(
            "checkpoint count",
            None if codes == [-signal.SIGKILL, expect] else
            f"exit codes {codes} with a crash at snapshot write {writes} "
            f"and {writes + 1}")
        log(f"{self.name}: chase: {plan['steps']} governor steps, "
            f"checkpoint every {plan['every']}: {writes} snapshots")
        return plan["every"]

    # -- operations ------------------------------------------------------

    def op(self, key, metric, argv, expect_exit, check=None, same_as=None):
        """Runs one CLI op. `check(text)` verifies the first output of
        `key`; later rounds must reproduce that output byte for byte.
        `same_as` names an op whose output this one must equal, which is
        one more op (a contract check)."""
        run = self.run
        run.attempted += 1
        out = os.path.join(self.work, f"{key}.out")
        res = spawn([self.tgdkit] + argv, out, os.path.join(self.work, "in"))
        run.rss_kb = max(run.rss_kb, res.rss_kb)
        if res.code != expect_exit:
            run.failed += 1
            log(f"{key}: exit {res.code}, expected {expect_exit}")
            return
        if metric is not None:
            run.add(metric, res.seconds)
        data = res.data()
        seen = digest(normalize_threads(data))
        if key in run.outputs:
            if run.outputs[key] != seen:
                run.fail_check(key, "output changed between rounds")
        else:
            if check is not None:
                run.fail_check(key, check(data.decode()))
            run.outputs[key] = seen
        if same_as is not None:
            run.attempted += 1
            run.fail_check(f"{key} equals {same_as}",
                           None if run.outputs.get(same_as) == seen
                           else "outputs differ")

    def chase_family(self, rules, facts, limit_args, expect, check):
        """chase (1 lane), chase (parallel), checkpointed chase, resume;
        with the byte-identity contract checks."""
        base = ["chase", rules, facts] + limit_args
        self.op("chase", "chase_s", base + ["--threads", "1"], expect, check)
        self.op("chase_par", "chase_par_s",
                base + ["--threads", str(LANES)], expect, None,
                same_as="chase")
        snap = os.path.join(self.work, "ck.snap")
        self.op("checkpoint", "checkpoint_s",
                base + ["--threads", "1", "--checkpoint", snap,
                        "--checkpoint-every-steps", str(self.cadence)],
                expect, None, same_as="chase")
        # Limits are not part of a snapshot: the resume repeats them.
        self.op("resume", "resume_s",
                ["chase", "--resume", snap] + limit_args,
                expect, None, same_as="chase")

    def cli_round(self):
        self.chase_family(*self.chase_job())
        f = self.files
        if self.name == "closure":
            edges = self.inputs["edges"]
            want = oracle.reach_answers(edges, self.inputs["source"])
            self.op("certain", "certain_s",
                    ["certain", f["closure.tgd"], f["closure.facts"],
                     self.inputs["query"]], 0,
                    lambda t: oracle.check_answers(t, want))
            self.op("explain", "explain_s",
                    ["explain", f["closure.tgd"], f["closure.facts"]], 0,
                    oracle.check_explain_no_nulls)
            # Derives the 0-ary atom Cyc(); the output must contain it.
            self.op("zero_ary", None,
                    ["chase", f["zero_ary.tgd"], f["zero_ary.facts"]], 0,
                    lambda t: None if "\nCyc()\n" in t else "Cyc() missing")
        elif self.name in ("exchange", "serve"):
            model = self.model
            want = oracle.exchange_answers(model, self.inputs["course"])
            self.op("certain", "certain_s",
                    ["certain", f["exchange.tgd"], f["exchange.facts"],
                     self.inputs["query"]], 0,
                    lambda t: oracle.check_answers(t, want))
            self.op("explain", "explain_s",
                    ["explain", f["exchange.tgd"], f["exchange.facts"]], 0,
                    lambda t: oracle.check_exchange_explain(t, model))
        else:
            start = self.inputs["start"]
            edepth = gen.DEEP_CHAIN_EXPLAIN_DEPTH
            self.op("explain", "explain_s",
                    ["explain", f["chain.tgd"], f["chain.facts"],
                     "--max-depth", str(edepth)], 4,
                    lambda t: oracle.check_chain_explain(t, start, edepth))
            for k, item in enumerate(self.inputs["pcps"]):
                self.op(f"certain{k}", "certain_s",
                        ["certain", f[item["file"]], f["pcp.facts"],
                         gen.PCP_QUERY, "--max-depth",
                         str(gen.DEEP_PCP_DEPTH)], 4,
                        lambda t, item=item: oracle.check_pcp_certain(t, item))

    def serve_round(self, round_index):
        """One round of the serve mix. Latency percentiles and throughput
        are taken per round and reported as medians over rounds, like the
        CLI timings, so a stall in a few rounds does not move them."""
        frames = self.mix.round_frames(round_index)
        wall, results, sheds = closed_loop(self.daemon.sock, frames)
        self.run.attempted += len(frames)
        self.run.fail_check("serve replies", self.mix.check(results, self.refs))
        latencies = sorted(lat for lat, _ in results)
        self.run.add("serve_p50_ms", percentile(latencies, 50) * 1000)
        self.run.add("serve_p99_ms", percentile(latencies, 99) * 1000)
        self.run.add("serve_rps", len(results) / wall)
        self.sheds += sheds

    # -- rounds ----------------------------------------------------------

    def measure(self, seconds):
        self.sheds = 0
        self.daemon_rss_kb = None
        # The serve client's latencies are taken in this process: a
        # cyclic-GC pass over the workload's reference models would stall
        # it for milliseconds and show up as request latency. Garbage made
        # in the rounds is freed by reference counting.
        gc.collect()
        gc.disable()
        start = time.perf_counter()
        rounds = 0
        try:
            while rounds == 0 or time.perf_counter() - start < seconds:
                self.cli_round()
                self.serve_round(rounds)
                self.run.end_round()
                rounds += 1
                if rounds == DAEMON_RSS_ROUNDS:
                    self.daemon_rss_kb = self.daemon.peak_rss_kb()
        finally:
            gc.enable()
        self.rounds = rounds

    def finish(self):
        if self.daemon_rss_kb is None:
            self.daemon_rss_kb = self.daemon.peak_rss_kb()
        code = self.daemon.stop()
        if code != 0:
            self.run.fail_check("serve drain", f"daemon exit {code}")
        metrics = {name: statistics.median(values)
                   for name, values in self.run.samples.items()}
        metrics["cli_peak_rss_mb"] = self.run.rss_kb / 1024
        metrics["peak_rss_mb"] = max(self.run.rss_kb,
                                     self.daemon_rss_kb) / 1024
        log(f"{self.name}: {self.rounds} rounds of {len(self.mix.plan)} "
            f"serve requests ({self.sheds} sheds retried), "
            f"{self.run.attempted} ops attempted, {self.run.failed} failed")
        return {name: {"value": metrics[name], "unit": unit}
                for name, unit in END_TO_END}


def percentile(sorted_values, pct):
    """Nearest-rank percentile."""
    if not sorted_values:
        raise RuntimeError("no samples")
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


# ------------------------------------------------------------------ main


def run_workload(name, seed, seconds, trace, binaries):
    work = os.path.join(build_dir(), f"work-{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "in"))
    try:
        if trace:
            import layers
            return layers.run(name, seed, seconds, binaries, work)
        workload = Workload(name, seed, binaries, work)
        try:
            workload.setup()
            workload.measure(seconds)
            metrics = workload.finish()
        finally:
            daemon = getattr(workload, "daemon", None)
            if daemon is not None and daemon.proc.returncode is None:
                _kill(daemon.proc.pid)
                daemon.proc.wait()
        run = workload.run
        return {"correct": run.correct, "attempted": run.attempted,
                "failed": run.failed, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    # A SIGTERM unwinds like an error, so the daemon and the launcher are
    # stopped and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    binaries = build()
    global LAUNCHER
    LAUNCHER = Launcher(binaries["spawn"])
    try:
        run_all(args, binaries)
    finally:
        LAUNCHER.close()


def run_all(args, binaries):
    names = WORKLOADS if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace,
                              binaries)
        if args.workload == "all":
            for metric, value in result["metrics"].items():
                print(f"{name}: {metric} = {value['value']:.6g} "
                      f"{value['unit']}")
            print(f"{name}: attempted {result['attempted']}, failed "
                  f"{result['failed']}, correct {result['correct']}")
        print(json.dumps(result), flush=True)


if __name__ == "__main__":
    # layers.py imports this file as `run`; one module object, so that
    # both see the same launcher.
    sys.modules["run"] = sys.modules["__main__"]
    main()
