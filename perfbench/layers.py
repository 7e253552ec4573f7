"""The traced run (--trace 1): per-layer metrics from in-process calls.

The layer tool (layers.cc) parses, Skolemizes, analyzes, chases (one
lane and parallel lanes), renders, evaluates the query, explains,
snapshots and resumes each of the workload's jobs, and replays the
workload's serve mix through ServeClient against an in-process server,
recording a span around every call. This module writes its config,
checks the outputs it leaves behind with the same reference computations
as the untraced run, adds `exec.startup_ms`, and returns the result.
"""

import json
import os
import statistics
import subprocess

import gen
import oracle
from run import (LANES, SERVE_CACHE_MB, ServeMix, adversarial_rulesets, log,
                 serve_pool, spawn)

STARTUP_SAMPLES = 21

# (name, unit) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = [
    ("parse.s", "s"), ("parse.mb_per_s", "MB/s"), ("skolemize.s", "s"),
    ("analyze.s", "s"), ("chase.init_s", "s"), ("chase.step_s", "s"),
    ("chase.max_step_s", "s"), ("chase.step_par_s", "s"),
    ("chase.rounds", "count"), ("chase.facts_created", "count"),
    ("chase.steps", "count"), ("chase.facts_per_kstep", "facts/kstep"),
    ("term.arena_terms", "count"), ("term.arena_mb", "MB"),
    ("instance.mb", "MB"), ("instance.index_mb", "MB"), ("render.s", "s"),
    ("render.mb", "MB"), ("query.eval_s", "s"), ("query.answers", "count"),
    ("explain.render_s", "s"), ("explain.mb", "MB"),
    ("snapshot.capture_s", "s"), ("snapshot.save_s", "s"),
    ("snapshot.mb", "MB"), ("snapshot.load_s", "s"),
    ("serve.ping_ms", "ms"), ("serve.lint_ms", "ms"),
    ("serve.classify_ms", "ms"), ("serve.certain_ms", "ms"),
    ("serve.cache_hits", "count"), ("serve.sheds", "count"),
    ("exec.startup_ms", "ms"),
] + [(f"{span}.self_s", "s") for span in (
    "job", "parse", "skolemize", "analyze", "chase", "chase_par", "render",
    "query", "explain", "snapshot", "serve")]


def jobs(name, inputs):
    """(rules, facts, max_depth, explain, query, check) per job."""
    f = inputs["files"]
    if name == "closure":
        edges = inputs["edges"]
        model = oracle.closure_model(edges)
        want = oracle.reach_answers(edges, inputs["source"])
        return [(f["closure.tgd"], f["closure.facts"], 256, True,
                 inputs["query"],
                 lambda out: oracle.check_closure_chase(out["facts"], edges,
                                                        model)
                 or oracle.check_rows(out["answers"], want)
                 or (None if out["explain"] == "" else "unexpected nulls"))]
    if name in ("exchange", "serve"):
        model = oracle.exchange_model(inputs["pairs"])
        want = oracle.exchange_answers(model, inputs["course"])
        return [(f["exchange.tgd"], f["exchange.facts"], 256, True,
                 inputs["query"],
                 lambda out: oracle.check_exchange_chase(out["facts"], model)
                 or oracle.check_rows(out["answers"], want)
                 or oracle.check_exchange_explain(out["explain"], model))]
    start = inputs["start"]
    chase_depth = gen.DEEP_CHAIN_CHASE_DEPTH
    explain_depth = gen.DEEP_CHAIN_EXPLAIN_DEPTH
    result = [
        (f["chain.tgd"], f["chain.facts"], chase_depth, False, "",
         lambda out: oracle.check_chain_stats(out["stats"], chase_depth)),
        (f["chain.tgd"], f["chain.facts"], explain_depth, True, "",
         lambda out: oracle.check_chain_explain(out["explain"], start,
                                                explain_depth)),
    ]
    for item in inputs["pcps"]:
        verdict = "true" if item["kind"] == "solvable" else "false"
        result.append(
            (f[item["file"]], f["pcp.facts"], gen.DEEP_PCP_DEPTH, False,
             gen.PCP_QUERY,
             lambda out, v=verdict, item=item:
             None if ("true" if out["answers"] == "\n" else "false") == v
             else f"PCP verdict differs from brute force on {item}"))
    return result


def read_or_empty(path):
    if not os.path.exists(path):
        return ""
    with open(path) as handle:
        return handle.read()


def run(name, seed, seconds, binaries, work):
    adversarial = adversarial_rulesets(binaries, seed)
    inputs = gen.generate(name, seed, os.path.join(work, "in"), adversarial)
    job_list = jobs(name, inputs)
    mix = ServeMix(seed, serve_pool(inputs))

    frames_path = os.path.join(work, "frames.txt")
    with open(frames_path, "w") as handle:
        for (kind, _), line in zip(mix.plan,
                                   mix.round_frames(0, mark_fresh=False)):
            handle.write(f"{kind} {line}")

    config = [f"threads {LANES}"]
    for rules, facts, depth, explain, query, _ in job_list:
        config.append(f"job {rules} {facts} {depth} {int(explain)}")
        if query:
            config.append(f"query {query}")
    config.append(f"serve {os.path.relpath(os.path.join(work, 'serve.sock'))} "
                  f"{frames_path} {SERVE_CACHE_MB}")
    config_path = os.path.join(work, "layers.conf")
    with open(config_path, "w") as handle:
        handle.write("\n".join(config) + "\n")

    out_dir = os.path.join(work, "out")
    os.makedirs(out_dir)
    spans = os.path.join(os.path.dirname(work), f"spans-{name}.jsonl")
    proc = subprocess.run([binaries["layers"], "trace", config_path,
                           str(seconds), spans, out_dir],
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"layer tool failed: {proc.stderr.strip()}")
    layer = json.loads(proc.stdout.splitlines()[-1])
    rounds = int(layer["rounds"])

    correct = True

    def check(what, reason):
        nonlocal correct
        if reason is not None:
            log(f"check failed: {what}: {reason}")
            correct = False

    for k, (*_, verify) in enumerate(job_list):
        out = {kind: read_or_empty(os.path.join(out_dir, f"job{k}.{kind}"))
               for kind in ("facts", "answers", "explain", "stats")}
        check(f"job {k}", verify(out))
    check("contracts", None if layer.get("contract.failed", 0) == 0
          else "parallel or resumed output differs from the 1-lane output")
    replies = [json.loads(line) for line in
               read_or_empty(os.path.join(out_dir, "serve.replies"))
               .splitlines()]
    check("serve replies", mix.check([(0, r) for r in replies],
                                     mix.reference(binaries["tgdkit"], work)))

    per_round = len(mix.plan)
    for _, _, _, explain, query, _ in job_list:
        per_round += 6 + int(bool(query)) + int(explain)
    failed = 0
    if name == "closure":
        per_round += 1
        for r in range(rounds):
            res = spawn([binaries["tgdkit"], "chase",
                         inputs["files"]["zero_ary.tgd"],
                         inputs["files"]["zero_ary.facts"]],
                        os.path.join(work, "zero_ary.out"), work)
            if res.code != 0 or "\nCyc()\n" not in res.text():
                failed += 1

    empty = os.path.join(work, "empty.tgd")
    open(empty, "w").close()
    startup = [spawn([binaries["tgdkit"], "lint", empty],
                     os.path.join(work, "startup.out"), work).seconds * 1000
               for _ in range(STARTUP_SAMPLES)]
    layer["exec.startup_ms"] = statistics.median(startup)

    log(f"{name}: traced {rounds} rounds; spans in {spans}")
    metrics = {metric: {"value": float(layer.get(metric, 0)), "unit": unit}
               for metric, unit in PER_LAYER}
    return {"correct": correct, "attempted": rounds * per_round,
            "failed": failed, "metrics": metrics}
