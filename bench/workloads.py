"""The four benchmark workloads: inputs from a seed, one op, and its oracle.

Each workload is a closed loop with one client: the next op starts only
after the last one returned.  Inputs are built from ``--seed`` outside the
timed op, so the library only ever sees the generated objects.  Every call
into the library goes through an ``api`` namespace (see :func:`make_api`) so
that a traced run can wrap those calls and a test can substitute a fake.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import select
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import oracles

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# Child processes and traces write here; it lies inside the checkout.
OUT_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(SRC))
import strata_kit as sk  # noqa: E402

if Path(sk.__file__).resolve().parent != SRC / "strata_kit":
    raise ImportError(f"strata_kit was imported from {sk.__file__}, not from {SRC}")

from strata_kit.cli import parse_expression  # noqa: E402

# The library functions a workload calls, keyed "module.function".
PUBLIC = {
    f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}": fn
    for fn in (
        sk.enumerate_with_support, sk.mw_dual, sk.lambda_of, sk.relate,
        sk.elementary_reductions, sk.dominance_leq, sk.downset, sk.components,
        sk.point_to_multisegment, sk.multisegment_to_orbit, sk.check_identity,
        parse_expression,
    )
}


def make_api(wrap=None) -> SimpleNamespace:
    """Namespace of the public functions; ``wrap(name, fn)`` decorates each."""
    return SimpleNamespace(**{
        name.split(".")[1]: wrap(name, fn) if wrap else fn for name, fn in PUBLIC.items()
    })


def stratified(items: list, key, rng: random.Random, buckets: int = 16) -> list:
    """Seeded order in which every prefix holds a proportional share of each
    cost bucket, so a run cut by the clock sees the same mix on every seed."""
    ranked = sorted(items, key=key)
    placed = []
    for k in range(buckets):
        part = ranked[k * len(ranked) // buckets:(k + 1) * len(ranked) // buckets]
        rng.shuffle(part)
        placed += [((j + rng.random()) / len(part), item) for j, item in enumerate(part)]
    placed.sort(key=lambda p: p[0])
    return [item for _, item in placed]


def line_name(rng: random.Random) -> str:
    """A seeded cuspidal line label, never the CLI's default line "r".

    Every label has three characters, because the parser and the sort keys
    take time per character and the cost of an op must not hang on the seed.
    """
    return rng.choice("stuvw") + str(rng.randrange(10, 100))


def seg_tuple(payload: dict) -> tuple:
    return payload["line"], payload["dim"], payload["a"], payload["b"]


def class_tuple(rep_payload: dict) -> tuple:
    """(line, dim, length) segments of an inertial class's representative JSON."""
    rep = oracles.decode_mseg(rep_payload)
    if any(a != 0 for _, _, a, _ in rep):
        raise ValueError("class representatives start at twist 0")
    return tuple(sorted((line, dim, b + 1) for line, dim, _, b in rep))


class Workload:
    """Interface: ``inputs`` feeds the timed loop, ``trace_inputs`` is the
    fixed set a traced run replays, ``op`` is timed, ``check`` is the oracle."""

    name = ""
    in_process = True

    def label(self, inp) -> str:
        return "op"

    def tally(self, inp, out, counts: Counter) -> None:
        """Add the output-derived per-layer counts of one op."""


# --------------------------------------------------------------------------
# corpus: the acceptance corpus, one support per op
# --------------------------------------------------------------------------


@dataclass
class CorpusInput:
    line: str
    twists: tuple
    points: list


class Corpus(Workload):
    """All supports of degree <= D on one line; the seed picks the line label,
    the twist offset and the visiting order, never which supports."""

    name = "corpus"
    DOWNSET_DEGREE = 6
    REL_FIELDS = ("same_line", "precedes", "preceded_by", "linked", "juxtaposed",
                  "contains", "contained_in", "disjoint")

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.degree = 4 if tiny else 8
        self.trace_degree = 4 if tiny else 7

    def _pass(self, degree: int, index: int):
        rng = random.Random(f"corpus/{self.seed}/{index}")
        line, offset = line_name(rng), rng.randint(-50, 50)
        supports = oracles.anchored_supports(degree)
        order = stratified(supports, lambda s: (oracles.count_with_support(s), len(s)), rng)
        for s in order:
            twists = tuple(t + offset for t in s)
            yield CorpusInput(line, twists, [sk.CuspidalLabel(line, twist=t) for t in twists])

    def inputs(self):
        for index in itertools.count():
            yield from self._pass(self.degree, index)

    def trace_inputs(self) -> list:
        return list(self._pass(self.trace_degree, 0))

    def op(self, api, inp: CorpusInput):
        rows = []
        for m in api.enumerate_with_support(inp.points):
            dual = api.mw_dual(m)
            lam = api.lambda_of(m)
            segs = m.segments
            rels = [api.relate(segs[i], segs[j])
                    for i in range(len(segs)) for j in range(i + 1, len(segs))]
            children = [(c, api.lambda_of(c)) for c in api.elementary_reductions(m)]
            doms = [api.dominance_leq(lc, lam) for _, lc in children]
            poset = api.downset(m) if len(inp.twists) <= self.DOWNSET_DEGREE else None
            rows.append((m, dual, api.mw_dual(dual), lam, rels, children, doms, poset))
        return rows

    def check(self, inp: CorpusInput, rows) -> bool:
        want = Counter((inp.line, 1, t) for t in inp.twists)
        if len(rows) != oracles.count_with_support(inp.twists):
            return False
        seen = set()
        for m, dual, back, lam, rels, children, doms, poset in rows:
            ms = oracles.decode_mseg(m.to_json())
            own_lam = oracles.lam(ms)
            if ms in seen or oracles.support(ms) != want or tuple(lam.to_json()) != own_lam:
                return False
            seen.add(ms)
            d = oracles.decode_mseg(dual.to_json())
            if oracles.support(d) != want or d != oracles.mw_dual(ms):
                return False
            if oracles.decode_mseg(back.to_json()) != ms:
                return False
            segs = [seg_tuple(s.to_json()) for s in m.segments]
            pairs = [(i, j) for i in range(len(segs)) for j in range(i + 1, len(segs))]
            for (i, j), rel in zip(pairs, rels, strict=True):
                own = oracles.relation(segs[i], segs[j])
                if any(getattr(rel, f) != own[f] for f in self.REL_FIELDS):
                    return False
            got = {oracles.decode_mseg(c.to_json()): tuple(lc.to_json()) for c, lc in children}
            if len(got) != len(children) or set(got) != oracles.reductions(ms):
                return False
            for c, lc in got.items():
                if oracles.support(c) != want or lc != oracles.lam(c):
                    return False
                if lc == own_lam or not oracles.dominated(lc, own_lam):
                    return False
            if not all(d is True for d in doms):
                return False
            if poset is not None:
                nodes, edges = oracles.closure(ms)
                data = poset.to_json()
                if {oracles.decode_mseg(n) for n in data["nodes"]} != nodes:
                    return False
                if len(data["nodes"]) != len(nodes) or len(data["edges"]) != len(edges):
                    return False
        return True

    def tally(self, inp, rows, counts: Counter) -> None:
        counts["multisegments.enumerate.kept"] += len(rows)


# --------------------------------------------------------------------------
# strata: a stratification sweep, one lambda per op
# --------------------------------------------------------------------------


@dataclass
class StrataInput:
    block: object
    partition: object
    lam: tuple
    expected: list
    tokens: list


class Strata(Workload):
    """Every lambda of degree n over a dim-1 and a dim-2 line; the seed picks
    the line labels, the lambda order and the round-trip twist tokens."""

    name = "strata"
    MAX_ORBIT = 5  # multisegment_to_orbit walks every permutation of an orbit

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.n = 5 if tiny else 14

    def _pass(self, index: int):
        rng = random.Random(f"strata/{self.seed}/{index}")
        r = line_name(rng)
        s = line_name(rng)
        while s == r:
            s = line_name(rng)
        block = sk.BlockSpec((sk.CuspidalLabel(r, 1), sk.CuspidalLabel(s, 2)), self.n)
        expected = oracles.inertial_classes(((r, 1), (s, 2)), self.n)
        order = stratified(oracles.partitions(self.n), lambda lam: len(expected[lam]), rng)
        for lam in order:
            # Distinct tokens, so that an orbit's size, and the round trip's
            # cost, depend on the class alone and not on the seed.
            tokens = rng.sample(range(-3 * self.n, 3 * self.n), self.n)
            yield StrataInput(block, sk.Partition(lam), lam, expected[lam], tokens)

    def inputs(self):
        for index in itertools.count():
            yield from self._pass(index)

    def trace_inputs(self) -> list:
        return list(self._pass(0))

    def op(self, api, inp: StrataInput):
        report = api.components(inp.block, inp.partition)
        trips = []
        for cls, ring in report.components:
            if max(map(len, ring.orbits)) <= self.MAX_ORBIT:
                tokens = tuple(inp.tokens[:ring.dimension])
                m = api.point_to_multisegment(cls, tokens)
                trips.append((cls, tokens, m, api.multisegment_to_orbit(m)))
        return report, trips

    def check(self, inp: StrataInput, out) -> bool:
        report, trips = out
        if tuple(report.lam.to_json()) != inp.lam:
            return False
        got = [class_tuple(cls.representative.to_json()) for cls, _ in report.components]
        if sorted(got) != sorted(inp.expected) or len(set(got)) != len(got):
            return False
        small = 0
        for cls, ring in report.components:
            mults = Counter(class_tuple(cls.representative.to_json()))
            if ring.dimension != sum(mults.values()):
                return False
            if sorted(map(len, ring.orbits)) != sorted(mults.values()):
                return False
            if len(ring.generators) != sum(mults.values()):
                return False
            small += max(mults.values()) <= self.MAX_ORBIT
        if len(trips) != small:
            return False
        for cls, tokens, m, (cls2, orbit) in trips:
            segments = class_tuple(cls.representative.to_json())
            # Tokens follow the ring's variable order: orbit by orbit, the
            # distinct segments by line, dim, then longest first.
            distinct = sorted(Counter(segments).items(),
                              key=lambda kv: (kv[0][0], kv[0][1], -kv[0][2]))
            groups, expect, pos = [], [], 0
            for (line, dim, length), mult in distinct:
                group = list(tokens[pos:pos + mult])
                pos += mult
                groups.append(group)
                expect += [(line, dim, t, t + length - 1) for t in group]
            if oracles.decode_mseg(m.to_json()) != tuple(sorted(expect)):
                return False
            if class_tuple(cls2.representative.to_json()) != segments or tokens not in orbit:
                return False
            if len(orbit) != oracles.distinct_perms(groups):
                return False
        return True

    def tally(self, inp, out, counts: Counter) -> None:
        counts["strata.components.kept"] += len(out[0].components)


# --------------------------------------------------------------------------
# kgroup: seeded Grothendieck-group identities, true and false
# --------------------------------------------------------------------------


@dataclass
class Identity:
    lhs: str
    rhs: str
    true: bool


def _seg_text(line: str, a: int, b: int) -> str:
    return f"[{a},{b}]" if line == "r" else f"[{a},{b};{line}]"


def _leibniz(rng: random.Random, lines: tuple, off: int) -> tuple[str, list]:
    """D^g of a product of k single-segment classes and its Leibniz expansion:
    the sum over g-subsets of factors, each chosen factor losing its top twist."""
    k = rng.randint(2, 5)
    factors = []
    for _ in range(k):
        a = off + rng.randint(0, 6)
        factors.append((rng.choice(lines), a, a + rng.randint(0, 2)))
    g = rng.randint(1, k)
    shown = factors[:]
    rng.shuffle(shown)
    lhs = f"D^{g}(" + "*".join("Z" + _seg_text(*f) for f in shown) + ")"
    terms = []
    for chosen in itertools.combinations(range(k), g):
        parts = []
        for i, (line, a, b) in enumerate(factors):
            if i not in chosen:
                parts.append("Z" + _seg_text(line, a, b))
            elif b > a:
                parts.append("Z" + _seg_text(line, a, b - 1))
        rng.shuffle(parts)
        terms.append("*".join(parts) or "Z{}")
    return lhs, terms


def _juxtaposed(rng: random.Random, lines: tuple, off: int) -> tuple[str, list]:
    """Z[c,b]*Z[a,c-1] = Z{[c,b],[a,c-1]} + Z[a,b] (criterion 7's split)."""
    line = rng.choice(lines)
    a = off + rng.randint(0, 4)
    c = a + rng.randint(1, 3)
    b = c + rng.randint(0, 2)
    d1, d2 = _seg_text(line, c, b), _seg_text(line, a, c - 1)
    factors = [f"Z{d1}", f"Z{d2}"]
    rng.shuffle(factors)
    return "*".join(factors), [f"Z{{{d1},{d2}}}", "Z" + _seg_text(line, a, b)]


def _display(rng: random.Random, lines: tuple, off: int) -> tuple[str, list]:
    """One of criterion 7's composition and juxtaposition displays, shifted."""
    line = rng.choice(lines)
    alpha = rng.randint(1, 4)

    def s(a, b):
        return _seg_text(line, off + a, off + b)

    delta, top, mid = s(0, alpha - 1), s(alpha + 1, alpha + 1), s(alpha, alpha)
    inner = s(0, alpha - 2) if alpha > 1 else ""
    z_dm = "Z{%s}" % inner
    z_mid = "Z{" + mid + ("," + inner if inner else "") + "}"
    pi = f"Z{top}*Z{{{mid},{delta}}}"
    return rng.choice((
        (f"D^2({pi})", [z_mid, f"Z{top}*{z_dm}"]),
        (f"D^2(Z{{{top},{mid}}}*Z{{{delta}}})", [f"Z{{{delta}}}", f"Z{top}*{z_dm}"]),
        (f"D^1({pi})", [f"Z{top}*{z_mid}", f"Z{{{mid},{delta}}}"]),
        (f"D^1(Z{{{mid},{delta}}})", [z_mid]),
    ))


def identities(rng: random.Random):
    """Endless seeded identities; each true one is followed by a false copy
    that drops one right-hand term, when it has more than one."""
    lines = ("r", "r", "r", line_name(rng))
    while True:
        off = rng.randint(-20, 20)
        pick = rng.random()
        make = _leibniz if pick < 0.8 else _juxtaposed if pick < 0.9 else _display
        lhs, terms = make(rng, lines, off)
        rng.shuffle(terms)
        yield Identity(lhs, " + ".join(terms), True)
        if len(terms) > 1:
            drop = rng.randrange(len(terms))
            yield Identity(lhs, " + ".join(terms[:drop] + terms[drop + 1:]), False)


class KGroup(Workload):
    """Identities through the expression parser and the rewriting checker."""

    name = "kgroup"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.trace_ops = 40 if tiny else 1500

    def inputs(self):
        return identities(random.Random(f"kgroup/{self.seed}"))

    def trace_inputs(self) -> list:
        return list(itertools.islice(self.inputs(), self.trace_ops))

    def op(self, api, inp: Identity):
        return api.check_identity(api.parse_expression(inp.lhs), api.parse_expression(inp.rhs))

    def check(self, inp: Identity, verdict) -> bool:
        return (verdict.status == "verified") == inp.true

    def tally(self, inp, verdict, counts: Counter) -> None:
        counts[f"kgroup.verdicts.{verdict.status}"] += 1


# --------------------------------------------------------------------------
# cli: all eight verbs as child processes
# --------------------------------------------------------------------------


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class ChildResult:
    code: int
    stdout: bytes
    stderr: bytes
    seconds: float
    maxrss_kib: int


def run_child(argv: list, timeout: float = 60.0) -> ChildResult:
    """Run one child to completion; its wall time and peak RSS come from wait4."""
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT_DIR) as out, tempfile.TemporaryFile(dir=OUT_DIR) as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        pidfd = os.pidfd_open(proc.pid)
        try:
            if not select.select([pidfd], [], [], timeout)[0]:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildResult(proc.returncode, out.read(), err.read(), seconds, usage.ru_maxrss)


def cli_argv(*args: str) -> list:
    return [sys.executable, "-m", "strata_kit.cli", *args]


@dataclass
class CliInput:
    verb: str
    args: list
    expect: object = None
    dot: bool = False


class Cli(Workload):
    """A seeded mix of the eight verbs, in blocks that hold each verb once."""

    name = "cli"
    in_process = False
    VERBS = ("lambda", "dual", "poset", "strata", "ring", "ext", "kgroup-check", "enumerate")

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.trace_reps = 1 if tiny else 5
        self.peak_rss_kib = 0

    def _mseg(self, rng, lines) -> tuple:
        segs = []
        for _ in range(rng.randint(1, 4)):
            line, dim = rng.choice(lines)
            a = rng.randint(-3, 3)
            segs.append((line, dim, a, a + rng.randint(0, 3)))
        return tuple(sorted(segs))

    def _make(self, rng, verb, lines, kgroup) -> CliInput:
        if verb in ("lambda", "dual"):
            ms = self._mseg(rng, lines)
            want = list(oracles.lam(ms)) if verb == "lambda" else oracles.mw_dual(ms)
            return CliInput(verb, [json.dumps(oracles.encode_mseg(ms))], want)
        if verb == "poset":
            line = lines[0][0]
            starts = sorted(rng.randint(0, 4) for _ in range(rng.randint(3, 6)))
            ms = tuple(sorted((line, 1, a, a + rng.randint(0, 2)) for a in starts))
            nodes, edges = oracles.closure(ms)
            dot = rng.random() < 0.5
            args = [json.dumps(oracles.encode_mseg(ms))] + (["--dot"] if dot else [])
            return CliInput(verb, args, (nodes, len(edges)), dot)
        if verb == "strata":
            n = rng.randint(4, 7)
            lam = rng.choice(oracles.partitions(n))
            block = {"lines": [{"line": ln, "dim": d} for ln, d in lines], "n": n}
            want = oracles.inertial_classes(tuple(lines), n)[lam]
            return CliInput(verb, ["--block", json.dumps(block), "--lambda", json.dumps(list(lam))],
                            sorted(want))
        if verb == "ring":
            ms = self._mseg(rng, lines)
            mults = Counter((ln, d, b - a + 1) for ln, d, a, b in ms)
            return CliInput(verb, ["--class", json.dumps(oracles.encode_mseg(ms))],
                            (len(ms), sorted(mults.values())))
        if verb == "ext":
            if rng.random() < 0.5:
                r = rng.randint(0, 12)
                args = ["--r", str(r)]
            else:
                ms = self._mseg(rng, lines)
                r, args = len(ms), ["--mseg", json.dumps(oracles.encode_mseg(ms))]
            return CliInput(verb, args, [math.comb(r, i) for i in range(r + 1)])
        if verb == "kgroup-check":
            ident = next(kgroup)
            return CliInput(verb, [f"{ident.lhs} = {ident.rhs}"], ident.true)
        line = lines[0][0]
        twists = [rng.randint(0, 3) for _ in range(rng.randint(2, 6))]
        return CliInput(verb, ["--support", json.dumps([[line, t] for t in twists])],
                        (oracles.count_with_support(twists),
                         Counter((line, 1, t) for t in twists)))

    def _blocks(self, rng):
        lines = ((line_name(rng), 1), (line_name(rng) + "x", 2))
        kgroup = identities(rng)
        while True:
            verbs = list(self.VERBS)
            rng.shuffle(verbs)
            for verb in verbs:
                yield self._make(rng, verb, lines, kgroup)

    def inputs(self):
        return self._blocks(random.Random(f"cli/{self.seed}"))

    def trace_inputs(self) -> list:
        return list(itertools.islice(self._blocks(random.Random(f"cli-trace/{self.seed}")),
                                     self.trace_reps * len(self.VERBS)))

    def label(self, inp: CliInput) -> str:
        return f"cli.{inp.verb}"

    def warm(self) -> None:
        """One untimed invocation, so that __pycache__ exists as after an install."""
        run_child(cli_argv("ext", "--r", "1"))

    def op(self, api, inp: CliInput) -> ChildResult:
        res = run_child(cli_argv(inp.verb, *inp.args))
        self.peak_rss_kib = max(self.peak_rss_kib, res.maxrss_kib)
        return res

    def check(self, inp: CliInput, res: ChildResult) -> bool:
        if res.code != 0:
            return False
        text = res.stdout.decode("utf-8")
        if inp.verb == "kgroup-check":
            return (text.strip() == "verified") == inp.expect
        if inp.verb == "poset" and inp.dot:
            nodes, edges = inp.expect
            lines = text.splitlines()
            return (sum("[label=" in ln for ln in lines) == len(nodes)
                    and sum("->" in ln for ln in lines) == edges)
        data = json.loads(text)
        if inp.verb in ("lambda", "ext"):
            return data == inp.expect
        if inp.verb == "dual":
            return oracles.decode_mseg(data) == inp.expect
        if inp.verb == "poset":
            nodes, edges = inp.expect
            got = {oracles.decode_mseg(n) for n in data["nodes"]}
            return got == nodes and len(data["nodes"]) == len(nodes) and len(data["edges"]) == edges
        if inp.verb == "strata":
            got = [class_tuple(c["class"]["representative"]) for c in data["components"]]
            return sorted(got) == inp.expect
        if inp.verb == "ring":
            size, mults = inp.expect
            return data["dimension"] == size and sorted(map(len, data["orbits"])) == mults
        count, support = inp.expect
        found = [oracles.decode_mseg(m) for m in data]
        return (len(found) == count == len(set(found))
                and all(oracles.support(m) == support for m in found))


WORKLOADS = {w.name: w for w in (Corpus, Strata, KGroup, Cli)}
