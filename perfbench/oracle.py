"""Reference computations the benchmark checks `tgdkit` outputs against.

Nothing here calls tgdkit: closures come from BFS, exchange counts from
distinct-counts over the generated source facts, PCP verdicts from a
brute-force search whose solutions are re-verified by concatenation, and
the Skolem chain's sizes from the Fibonacci recurrence its rule implies.
Each check returns None when the output is right, or a one-line reason.
"""

import re
from collections import defaultdict, deque

FACT_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_$]*)\((.*)\)$")


def parse_facts(text):
    """Fact lines of `chase` output as {relation: set of arg tuples}."""
    facts = defaultdict(set)
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = FACT_RE.match(line)
        if match is None:
            raise ValueError(f"unparseable fact line {line[:80]!r}")
        args = match.group(2)
        facts[match.group(1)].add(tuple(args.split(", ")) if args else ())
    return facts


def header(text, prefix):
    for line in text.splitlines():
        if line.startswith(prefix):
            return line
    return None


# --------------------------------------------------------------- closure


def closure_model(edges):
    """(T, J) of the closure program: T = transitive closure of E, and
    J(x, w) iff E(x, y), T(y, z), E(z, w) for some y, z."""
    succ = defaultdict(set)
    for a, b in edges:
        succ[a].add(b)
    reach = {}
    for start in succ:
        seen = set()
        queue = deque(succ[start])
        seen.update(succ[start])
        while queue:
            node = queue.popleft()
            for nxt in succ.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        reach[start] = seen
    closure = {(a, b) for a, bs in reach.items() for b in bs}
    join = set()
    for x, ys in succ.items():
        targets = set()
        for y in ys:
            for z in reach.get(y, ()):
                targets.update(succ.get(z, ()))
        join.update((x, w) for w in targets)
    return closure, join


def check_closure_chase(text, edges, model):
    closure, join = model
    facts = parse_facts(text)
    if facts.get("E", set()) != set(edges):
        return "E differs from the input edges"
    if facts.get("T", set()) != closure:
        return (f"T has {len(facts.get('T', ()))} facts, BFS closure has "
                f"{len(closure)}")
    if facts.get("J", set()) != join:
        return f"J has {len(facts.get('J', ()))} facts, expected {len(join)}"
    if set(facts) - {"E", "T", "J"}:
        return "unexpected relations in the chase output"
    return None


def reach_answers(edges, source):
    closure, _ = closure_model(edges)
    return sorted(b for a, b in closure if a == source)


def check_answers(text, expected):
    """Rows of a complete `certain` output against the expected answers."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# complete"):
        return f"certain header is {lines[0] if lines else None!r}"
    rows = sorted(line for line in lines if line and not line.startswith("#"))
    expected = sorted(expected)
    if rows != expected:
        return f"{len(rows)} answers, expected {len(expected)}"
    return None


def check_explain_no_nulls(text):
    if not text.startswith("# chase fixpoint; 0 nulls\n"):
        return "function-free explain must report 0 nulls"
    return None


# -------------------------------------------------------------- exchange


def exchange_model(pairs):
    distinct = set(pairs)
    students = {s for s, _ in distinct}
    courses = {c for _, c in distinct}
    return {"pairs": distinct, "students": students, "courses": courses}


def check_exchange_chase(text, model):
    pairs, students, courses = (model["pairs"], model["students"],
                                model["courses"])
    facts = parse_facts(text)
    counts = {name: len(rows) for name, rows in facts.items()}
    expected = {"Takes": len(pairs), "Enrollment": len(pairs),
                "Attends": len(students), "Offered": len(courses),
                "Advised": len(students), "Section": len(courses),
                "Seated": len(pairs)}
    if counts != expected:
        return f"relation counts {counts} differ from {expected}"
    if facts["Takes"] != pairs or facts["Offered"] != {(c,) for c in courses}:
        return "source facts or Offered differ from the input"
    nulls = {row[2] for row in facts["Enrollment"]}
    nulls |= {row[1] for row in facts["Advised"]}
    nulls |= {row[1] for row in facts["Section"]}
    if len(nulls) != len(pairs) + len(students) + len(courses):
        return "null count differs from distinct pairs + students + courses"
    if not all(v.startswith("_") for v in nulls):
        return "existential positions must hold nulls"
    section = dict(facts["Section"])
    by_section = defaultdict(set)
    for sec, s in facts["Seated"]:
        by_section[sec].add(s)
    seated = {(s, c) for c, sec in section.items() for s in by_section[sec]}
    if seated != pairs:
        return "Seated does not join back to Takes through Section"
    return None


def exchange_answers(model, course):
    return [s for s, c in model["pairs"] if c == course]


def check_exchange_explain(text, model):
    """Every null is explained by a Skolem term over exactly the source
    values its rule depends on: (student, course) pairs for the plain
    tgd, students for the SO tgd, courses for the nested tgd."""
    by_function = defaultdict(set)
    count = 0
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        count += 1
        match = re.match(r'^_\S+ = ([^()]+)\((.*)\)$', line)
        if match is None:
            return f"unparseable explain line {line[:80]!r}"
        args = tuple(a.strip('"') for a in match.group(2).split(", "))
        by_function[match.group(1)].add(args)
    got = sorted(sorted(values) for values in by_function.values())
    want = sorted([sorted(model["pairs"]),
                   sorted((s,) for s in model["students"]),
                   sorted((c,) for c in model["courses"])])
    if got != want:
        return "explained Skolem terms differ from the source distinct-sets"
    if count != sum(len(v) for v in by_function.values()):
        return "some null is explained twice"
    return None


# ------------------------------------------------------------------ deep


def pcp_solution(pairs, max_cost, iw, cw):
    """Cheapest PCP solution by BFS over prefix configurations, or None.

    A configuration is the unmatched overhang (which side, suffix). The
    cost of a selection sequence of k indexes spelling L letters is
    k * (iw + 1) + L * cw: the chase rounds its Figure 4 encoding needs,
    in units of function applications (plus one routing step per index).
    """
    start = (0, "")
    best = {start: 0}
    queue = deque([(start, [])])
    solutions = []
    while queue:
        (side, over), seq = queue.popleft()
        cost = best[(side, over)]
        for i, (u, v) in enumerate(pairs, start=1):
            top = "".join(map(str, u))
            bot = "".join(map(str, v))
            if side == 0:
                top = over + top
            else:
                bot = over + bot
            n = min(len(top), len(bot))
            if top[:n] != bot[:n]:
                continue
            step = (iw + 1) + max(len(u), len(v)) * cw
            new_cost = cost + step
            if new_cost > max_cost:
                continue
            if len(top) == len(bot):
                solutions.append((new_cost, seq + [i]))
                continue
            state = (0, top[n:]) if len(top) > n else (1, bot[n:])
            if state not in best or best[state] > new_cost:
                best[state] = new_cost
                queue.append((state, seq + [i]))
    if not solutions:
        return None
    return min(solutions)[1]


def verify_pcp_solution(pairs, seq):
    top = [x for i in seq for x in pairs[i - 1][0]]
    bot = [x for i in seq for x in pairs[i - 1][1]]
    return bool(seq) and top == bot


def pcp_unsolvable_reason(pairs):
    """A proof that the instance has no solution at all, or None."""
    if all(len(u) > len(v) for u, v in pairs):
        return "every top word is longer"
    if all(len(u) < len(v) for u, v in pairs):
        return "every bottom word is longer"
    starts = [(u, v) for u, v in pairs
              if u[:len(v)] == v[:len(u)]]
    if not starts:
        return "no pair can start a solution"
    return None


def pcp_bits(count):
    """Bits of the fixed-width binary code of 0..count-1 (at least 1)."""
    width = 1
    while (1 << width) < count:
        width += 1
    return width


def pcp_label(pairs, alphabet, depth):
    """Labels a PCP instance for a certain run at --max-depth `depth`:
    solvable with a solution cheap enough that the chase derives the goal
    before any term passes the cap, provably unsolvable, or None."""
    iw, cw = pcp_bits(len(pairs)), pcp_bits(alphabet)
    reason = pcp_unsolvable_reason(pairs)
    if reason is not None:
        return {"kind": "unsolvable", "reason": reason}
    # Margin: the fastest-growing branch reaches depth d after about 2d
    # rounds, the goal needs about 2 * cost rounds; stay well below.
    seq = pcp_solution(pairs, depth - 4, iw, cw)
    if seq is not None and verify_pcp_solution(pairs, seq):
        return {"kind": "solvable", "solution": seq}
    return None


def check_pcp_certain(text, item):
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    want = "true" if item["kind"] == "solvable" else "false"
    if lines != [want]:
        return f"PCP verdict {lines} but brute force says {item['kind']}"
    if item["kind"] == "solvable" and not verify_pcp_solution(
            item["pairs"], item["solution"]):
        return "brute-force solution fails re-verification"
    return None


def chain_sizes(count):
    """Node counts of the first `count` chain nulls: N_k = f(N_{k-2},
    N_{k-1}) over the two start constants, so size_k = 1 + size_{k-1} +
    size_{k-2} with size_{-2} = size_{-1} = 1, i.e. 2 F(k+3) - 1."""
    sizes = [1, 1]
    for _ in range(count):
        sizes.append(1 + sizes[-1] + sizes[-2])
    return sizes[2:]


def check_chain_chase(text, start, depth):
    head = header(text, "# chase ")
    want = f"# chase depth-limit after {depth + 1} rounds, {depth} facts created"
    if head != want:
        return f"chain header {head!r}, expected {want!r}"
    facts = parse_facts(text)
    if len(facts.get("E", ())) != depth + 1:
        return "chain must hold the start fact plus one fact per level"
    if (start[0], start[1]) not in facts["E"]:
        return "start fact missing"
    return None


def check_chain_explain(text, start, depth):
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    if len(lines) != depth:
        return f"{len(lines)} explained nulls, expected {depth}"
    for line, size in zip(lines, chain_sizes(depth)):
        term = line.split(" = ", 1)[1]
        nodes = term.count("(") + term.count('"') // 2
        if nodes != size:
            return f"explain term of {nodes} nodes, Fibonacci size is {size}"
    if f'"{start[0]}", "{start[1]}"' not in lines[0]:
        return "first null must be explained over the start fact"
    return None


def check_rows(text, expected):
    """Answer rows written by the layer tool against expected answers."""
    rows = sorted(line for line in text.splitlines())
    if rows != sorted(expected):
        return f"{len(rows)} answers, expected {len(expected)}"
    return None


def check_chain_stats(text, depth):
    """`rounds facts stop` of the chain chase at --max-depth `depth`."""
    want = f"{depth + 1} {depth} depth-limit"
    if text.strip() != want:
        return f"chain stats {text.strip()!r}, expected {want!r}"
    return None
