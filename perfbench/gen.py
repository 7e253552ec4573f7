#!/usr/bin/env python3
"""Seeded input generators for the tgdkit end-to-end benchmark.

Every input file `tgdkit` reads in a benchmark run is written here, from
the workload name and the seed alone: the same (workload, seed) pair
always yields the same bytes. Alongside the files, each generator
returns the facts a check needs (edge lists, source pairs, PCP
solutions), so the checks in oracle.py never parse the inputs back.

Regenerate a workload's inputs and print their digests, to confirm that
two hosts measure the same bytes:

    python3 perfbench/gen.py --workload exchange --seed 7 --out /tmp/in
"""

import argparse
import hashlib
import json
import os
import random
import sys

import oracle

# Sizes. Each is chosen so that one round of a workload's operations
# takes a few seconds on a 4-CPU host (see README.md, "Inputs").
CLOSURE_NODES = 240        # random sparse digraph: nodes ...
CLOSURE_EDGES = 120        # ... and edges (mean out-degree 1/2)
CLOSURE_PATH = 85          # plus a simple path p0 -> ... -> p{L-1}
EXCHANGE_TAKES = 100000    # Takes(student, course) source facts
SERVE_CLI_TAKES = 20000    # the same shape for the serve workload's CLI ops
EXCHANGE_STUDENTS = 1000
EXCHANGE_COURSES = 60
DEEP_CHAIN_CHASE_DEPTH = 31    # --max-depth of the chain chase
DEEP_CHAIN_EXPLAIN_DEPTH = 22  # --max-depth of the chain explain
DEEP_PCP_DEPTH = 15            # --max-depth of the PCP certain runs
DEEP_PCP_SOLVABLE = 2          # PCP instances per kind and seed
DEEP_PCP_UNSOLVABLE = 2

CLOSURE_RULES = """\
# Transitive closure plus a 3-way join: function-free, recursive.
tc_base: E(x, y) -> T(x, y) .
tc_step: T(x, y) & T(y, z) -> T(x, z) .
join3: E(x, y) & T(y, z) & E(z, w) -> J(x, w) .
"""

# The 0-ary head atom below is ordinary tgd syntax; the op built from it
# is kept so a fault on propositional atoms stays visible.
ZERO_ARY_RULES = "cyc: E(x, y) & E(y, x) -> Cyc() .\n"
ZERO_ARY_FACTS = "E(a, b) .\nE(b, a) .\n"

# The corpus/university.tgd shape: a plain tgd with an existential, two
# full tgds, an SO tgd and a nested tgd.
EXCHANGE_RULES = """\
s1: Takes(student, course) -> exists rec . Enrollment(student, course, rec) .
s2: Enrollment(student, course, rec) -> Attends(student) .
s3: Takes(student, course) -> Offered(course) .
s4: so exists advisor { Takes(student, course) ->
      Advised(student, advisor(student)) } .
s5: nested Offered(course) -> exists section .
      Section(course, section) &
      [ Takes(student, course) -> Seated(section, student) ] .
"""

CHAIN_RULES = "chain: E(x, y) -> exists z . E(y, z) .\n"


def _write(out_dir, name, text, files):
    path = os.path.join(out_dir, name)
    with open(path, "w") as handle:
        handle.write(text)
    files[name] = path


# --------------------------------------------------------------- closure


def closure_inputs(seed, out_dir):
    rng = random.Random(f"closure:{seed}")
    edges = set()
    while len(edges) < CLOSURE_EDGES:
        a = rng.randrange(CLOSURE_NODES)
        b = rng.randrange(CLOSURE_NODES)
        if a != b:
            edges.add((f"v{a}", f"v{b}"))
    # The path carries most of the closure. It stays apart from the random
    # part, whose reachable sets vary by seed, so every seed does about the
    # same amount of work.
    for i in range(CLOSURE_PATH - 1):
        edges.add((f"p{i}", f"p{i + 1}"))
    edge_list = sorted(edges)
    rng.shuffle(edge_list)
    source = f"p{rng.randrange(CLOSURE_PATH // 4)}"
    files = {}
    _write(out_dir, "closure.tgd", CLOSURE_RULES, files)
    _write(out_dir, "closure.facts",
           "".join(f"E({a}, {b}) .\n" for a, b in edge_list), files)
    _write(out_dir, "zero_ary.tgd", ZERO_ARY_RULES, files)
    _write(out_dir, "zero_ary.facts", ZERO_ARY_FACTS, files)
    return {
        "files": files,
        "query": f'ans(y) :- T("{source}", y)',
        "edges": edge_list,
        "source": source,
    }


# -------------------------------------------------------------- exchange


def takes_facts(rng, count, students, courses):
    """`count` Takes facts, duplicates included on purpose (the chase
    must deduplicate them)."""
    pairs = []
    for _ in range(count):
        # Skewed course popularity: a few large courses, a long tail.
        c = min(int(rng.paretovariate(1.2)) - 1, courses - 1)
        c = (c * 7919 + rng.randrange(3)) % courses
        pairs.append((f"st{rng.randrange(students)}", f"co{c}"))
    return pairs


def exchange_inputs(seed, out_dir, label="exchange", takes=EXCHANGE_TAKES):
    rng = random.Random(f"{label}:{seed}")
    pairs = takes_facts(rng, takes, EXCHANGE_STUDENTS, EXCHANGE_COURSES)
    course = pairs[rng.randrange(len(pairs))][1]
    files = {}
    _write(out_dir, "exchange.tgd", EXCHANGE_RULES, files)
    _write(out_dir, "exchange.facts",
           "".join(f"Takes({s}, {c}) .\n" for s, c in pairs), files)
    return {
        "files": files,
        "query": f'ans(s) :- Section("{course}", x), Seated(x, s)',
        "pairs": pairs,
        "course": course,
    }


# ------------------------------------------------------------------ deep


def pcp_rules(pairs, alphabet):
    """The Figure 4 Henkin encoding of a PCP instance as rule text.

    Configurations are R(state, selection, word); two standard Henkin
    tgds apply the unary functions f0/f1 on request (AP0/AP1 -> Done),
    every other rule is a full tgd routing the state machine that spells
    pair indexes and word letters in fixed-width binary. The instance is
    solvable iff R("B1", s, w) & R("B2", s, w) becomes certain.
    """
    iw = oracle.pcp_bits(len(pairs))
    cw = oracle.pcp_bits(alphabet)
    lines = ['init: Start(z) -> R("S1", "eps", "eps") & R("S2", "eps", "eps") .']

    def route(frm_rel, frm, to_rel, to, swap):
        head = f'{to_rel}("{to}", p, a)' if swap else f'{to_rel}("{to}", a, p)'
        lines.append(f'{frm_rel}("{frm}", a, p) -> {head} .')

    for b in (1, 2):
        for i in range(1, len(pairs) + 1):
            code = i - 1
            for frm in (f"S{b}", f"B{b}"):
                route("R", frm, f"AP{code & 1}", f"sel_{b}_{i}_1", False)
            for t in range(1, iw):
                route("Done", f"sel_{b}_{i}_{t}", f"AP{(code >> t) & 1}",
                      f"sel_{b}_{i}_{t + 1}", False)
            word = pairs[i - 1][b - 1]
            if not word:
                route("Done", f"sel_{b}_{i}_{iw}", "R", f"B{b}", False)
                continue
            route("Done", f"sel_{b}_{i}_{iw}", f"AP{(word[0] - 1) & 1}",
                  f"chr_{b}_{i}_0_1", True)
            for j, letter in enumerate(word):
                letter_code = letter - 1
                for t in range(1, cw):
                    route("Done", f"chr_{b}_{i}_{j}_{t}",
                          f"AP{(letter_code >> t) & 1}",
                          f"chr_{b}_{i}_{j}_{t + 1}", False)
                if j + 1 < len(word):
                    route("Done", f"chr_{b}_{i}_{j}_{cw}",
                          f"AP{(word[j + 1] - 1) & 1}",
                          f"chr_{b}_{i}_{j + 1}_1", False)
                else:
                    route("Done", f"chr_{b}_{i}_{j}_{cw}", "R", f"B{b}", True)
    for bit in (0, 1):
        lines.append(f"apply{bit}: henkin {{ forall a ; forall q, p ; "
                     f"exists a2_{bit}(a) }} AP{bit}(q, a, p) -> "
                     f"Done(q, a2_{bit}, p) .")
    return "\n".join(lines) + "\n"


PCP_QUERY = 'ans() :- R("B1", s, w), R("B2", s, w)'


# Word lengths of the three PCP pairs. Fixed, so that every seed's
# encodings build the same number of configurations up to the depth cap
# (the letters are random); only the verdict differs.
PCP_LENGTHS = [(1, 2), (2, 1), (2, 2)]


def random_pcp(rng, alphabet=2):
    """Random letters on PCP_LENGTHS; no pair has equal words, so every
    solution selects at least two pairs."""
    def word(length):
        return [rng.randrange(1, alphabet + 1) for _ in range(length)]
    result = []
    for top, bottom in PCP_LENGTHS:
        u, v = word(top), word(bottom)
        while u == v:
            u, v = word(top), word(bottom)
        result.append((u, v))
    return result


def deep_inputs(seed, out_dir):
    rng = random.Random(f"deep:{seed}")
    files = {}
    _write(out_dir, "chain.tgd", CHAIN_RULES, files)
    start = (f"a{rng.randrange(1000)}", f"b{rng.randrange(1000)}")
    _write(out_dir, "chain.facts", f"E({start[0]}, {start[1]}) .\n", files)
    _write(out_dir, "pcp.facts", "Start(go) .\n", files)
    pcps = []
    want = {"solvable": DEEP_PCP_SOLVABLE, "unsolvable": DEEP_PCP_UNSOLVABLE}
    while any(want.values()):
        pairs = random_pcp(rng)
        verdict = oracle.pcp_label(pairs, 2, DEEP_PCP_DEPTH)
        if verdict is None or not want[verdict["kind"]]:
            continue
        want[verdict["kind"]] -= 1
        name = f"pcp{len(pcps)}.tgd"
        _write(out_dir, name, pcp_rules(pairs, 2), files)
        pcps.append({"file": name, "pairs": pairs, **verdict})
    return {"files": files, "start": start, "pcps": pcps}


# ----------------------------------------------------------------- serve


def serve_inputs(seed, out_dir, adversarial):
    """The serve mix's inputs: the exchange rules, exchange-shaped small
    data and the adversarial rulesets. Every workload runs the same mix.

    `adversarial` is a list of {"shape", "program"} produced by the
    benchmark's layer tool from the src/gen shape families.
    """
    rng = random.Random(f"serve:{seed}")
    files = {}
    _write(out_dir, "exchange.tgd", EXCHANGE_RULES, files)
    slices = []
    for k in range(8):
        sub = takes_facts(rng, 40, 30, 10)
        name = f"exchange_slice{k}.facts"
        _write(out_dir, name, "".join(f"Takes({s}, {c}) .\n" for s, c in sub),
               files)
        slices.append({"file": name, "pairs": sub, "course": sub[0][1]})
    rulesets = []
    for k, item in enumerate(adversarial):
        name = f"adv{k}_{item['shape']}.tgd"
        _write(out_dir, name, item["program"], files)
        rulesets.append(name)
    return {"files": files, "serve_slices": slices, "adversarial": rulesets}


def serve_cli_inputs(seed, out_dir):
    """The `serve` workload's CLI ops run the exchange program over a
    mid-size instance: every run reports every CLI metric, and on the
    40-fact serve slices process start-up, thread start and fsync would
    be all that those ops measure."""
    return exchange_inputs(seed, out_dir, "serve-cli", SERVE_CLI_TAKES)


WORKLOAD_INPUTS = {"closure": closure_inputs, "exchange": exchange_inputs,
                   "deep": deep_inputs, "serve": serve_cli_inputs}


def generate(workload, seed, out_dir, adversarial):
    """The workload's own inputs plus the serve mix's."""
    os.makedirs(out_dir, exist_ok=True)
    inputs = serve_inputs(seed, out_dir, adversarial)
    own = WORKLOAD_INPUTS[workload](seed, out_dir)
    inputs["files"].update(own.pop("files"))
    inputs.update(own)
    return inputs


def digests(inputs):
    result = {}
    for name, path in sorted(inputs["files"].items()):
        with open(path, "rb") as handle:
            result[name] = hashlib.sha256(handle.read()).hexdigest()
    return result


def main():
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import run  # the serve mix needs the layer tool for its rulesets
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["closure", "exchange", "deep", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    adversarial = run.adversarial_rulesets(run.build(), args.seed)
    inputs = generate(args.workload, args.seed, args.out, adversarial)
    print(json.dumps(digests(inputs), indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
