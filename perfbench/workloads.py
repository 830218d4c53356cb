"""Seeded job lists for the four benchmark workloads.

Every expected answer is derived here, without the code path the job
exercises: atoms are certified by brute force over this module's own
``compose``, normal forms and equivalences follow from the unique
factorization theorem (Billera, Thomas and van Willigenburg, Adv. Math. 204,
2006), counting sequences come from integer divisor recursions written here,
and small equalities are decided by h-basis fingerprints.

A job is one fresh process.  ``argv`` holds the CLI arguments (run as
``python -m ribbon_schur.cli``), or for library jobs the arguments of
``libjob.py``.  The seed changes the atoms, the small jitter of the count
bounds and the job order, never the job mix or its sizes, so that every seed
costs about the same.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from functools import cache
from math import comb

WORKLOADS = ("equiv-long", "count-length", "oracle-check", "exhaustive")

# cache directories of the count jobs, relative to the checkout; wiped
# before every round so that the first job of each pair runs cold
CACHE_ROOT = ".perfbench-work/cache"

@dataclass
class Job:
    label: str  # job class, used to break the trace down
    argv: list[str]
    expect: dict
    lib: bool = False  # run through libjob.py instead of the CLI
    id: int = -1


@dataclass
class Workload:
    name: str
    seed: int
    jobs: list[Job] = field(default_factory=list)

    def inputs_hash(self) -> str:
        """sha256 over every job's argv, in run order."""
        text = json.dumps([[j.lib, j.argv] for j in self.jobs])
        return hashlib.sha256(text.encode()).hexdigest()


# --- compositions, independently of the package -----------------------------------

Parts = tuple[int, ...]


def near_power(parts: Parts, k: int) -> Parts:
    """k copies of ``parts``, each glued to the next by adding the touching parts."""
    if len(parts) == 1:
        return (parts[0] * k,)
    bridge = (parts[-1] + parts[0],) + parts[1:-1]
    return parts[:-1] + bridge * (k - 1) + parts[-1:]


def compose(a: Parts, b: Parts) -> Parts:
    """The monoid product a o b: concatenate the a_i-fold near powers of b."""
    out: list[int] = []
    for x in a:
        out.extend(near_power(b, x))
    return tuple(out)


def compose_all(factors: list[Parts]) -> Parts:
    out = factors[0]
    for f in factors[1:]:
        out = compose(out, f)
    return out


def compositions_of(n: int) -> list[Parts]:
    out = []
    for mask in range(1 << (n - 1)):
        parts, prev = [], 0
        for i in range(n - 1):
            if mask >> i & 1:
                parts.append(i + 1 - prev)
                prev = i + 1
        parts.append(n - prev)
        out.append(tuple(parts))
    return out


@cache
def split_products(s: int) -> frozenset[Parts]:
    """Every b o g of size s with 1 < |g| < s."""
    out = set()
    for q in range(2, s):
        if s % q == 0:
            for b in compositions_of(s // q):
                for g in compositions_of(q):
                    out.add(compose(b, g))
    return frozenset(out)


def asymmetric_atoms(s: int) -> list[Parts]:
    """Irreducible asymmetric atoms of size s, certified by brute force.

    Such a composition has length > 1 and a part > 1, so it is no product of
    a trivial pair; it is an atom exactly when no product b o g with
    1 < |g| < s equals it.
    """
    products = split_products(s)
    return [
        c for c in compositions_of(s)
        if len(c) > 1 and max(c) > 1 and c != c[::-1] and c not in products
    ]


def fingerprint(parts: Parts) -> dict[Parts, int]:
    """Expansion of the ribbon over the h basis: the signed sum over coarsenings."""
    k = len(parts)
    out: dict[Parts, int] = {}
    for mask in range(1 << (k - 1)):
        merged, acc = [], parts[0]
        for i in range(k - 1):
            if mask >> i & 1:
                merged.append(acc)
                acc = parts[i + 1]
            else:
                acc += parts[i + 1]
        merged.append(acc)
        key = tuple(sorted(merged, reverse=True))
        out[key] = out.get(key, 0) + (-1 if (k - len(merged)) & 1 else 1)
    return {key: c for key, c in out.items() if c}


def fmt(parts: Parts) -> str:
    return ",".join(map(str, parts))


# --- counting sequences, by integer divisor recursions ------------------------------

def _divisor_lists(n: int) -> list[list[int]]:
    table: list[list[int]] = [[] for _ in range(n + 1)]
    for d in range(1, n + 1):
        for m in range(d, n + 1, d):
            table[m].append(d)
    return table


def _inverse(a: list[int], divisors: list[list[int]]) -> list[int]:
    # Dirichlet inverse of a series with a_1 = 1; index 0 unused
    b = [0, 1]
    for n in range(2, len(a)):
        b.append(-sum(b[d] * a[n // d] for d in divisors[n] if d < n))
    return b


def reference_sequences(bound: int) -> dict[str, list[int]]:
    """a(1..bound) for the count variants the workloads use, 0-indexed."""
    dv = _divisor_lists(bound)
    c = [0] + [1 << (n - 1) for n in range(1, bound + 1)]
    s = [0] + [1 << (n // 2) for n in range(1, bound + 1)]
    # R (C + S) = 2 C S, and (C + S)_1 = 2
    r = [0]
    for n in range(1, bound + 1):
        cs = sum(c[d] * s[n // d] for d in dv[n])
        rest = sum(r[d] * (c[n // d] + s[n // d]) for d in dv[n] if d < n)
        value, rem = divmod(2 * cs - rest, 2)
        if rem:
            raise ArithmeticError(f"R_{n} is not an integer")
        r.append(value)
    # P = 2 mu - e - 1/R
    mu = _inverse([0] + [1] * bound, dv)
    r_inv = _inverse(r, dv)
    p = [0] + [2 * mu[n] - (n == 1) - r_inv[n] for n in range(1, bound + 1)]
    return {
        "all": r[1:],
        "irreducible": p[1:],
        "lexmin": [(x + y) // 2 for x, y in zip(c[1:], s[1:])],
        "compositions": c[1:],
    }


def symmetric_by_length(n: int) -> list[int]:
    """Coefficients of S_n(x): x(1+x)(1+x^2)^((n-2)/2) or x(1+x^2)^((n-1)/2)."""
    out = [0] * (n + 1)
    h = (n - 1) // 2
    for j in range(h + 1):
        out[1 + 2 * j] += comb(h, j)
        if n % 2 == 0:
            out[2 + 2 * j] += comb(h, j)
    return out


# --- the workloads ----------------------------------------------------------------

def _equiv_long(rng: random.Random, w: Workload) -> None:
    # atoms grouped by (size, length); a reversed atom stays in its group
    groups: dict[tuple[int, int], list[Parts]] = {}
    for s in range(4, 10):
        for a in asymmetric_atoms(s):
            groups.setdefault((s, len(a)), []).append(a)
    # The shape of each product (the size and length of every factor, and
    # whether an equiv job is positive) comes from a fixed stream, the atoms
    # from the seed: every seed then factors products of the same sizes and
    # lengths, whose cost depends on both.
    shapes = random.Random("equiv-long shapes")

    def shape_near(target: int) -> list[tuple[int, int]]:
        # 3-6 factors of sizes 4-9, product length within 5% of the target,
        # and one factor whose group has an atom other than it and its reversal
        while True:
            shape = [shapes.choice(sorted(groups)) for _ in range(shapes.randint(3, 6))]
            # len(b o g) = len(b) + |b| (len(g) - 1)
            length, size = shape[0][1], shape[0][0]
            for s, l in shape[1:]:
                length += size * (l - 1)
                size *= s
            if (abs(length - target) <= target // 20
                    and any(len(groups[key]) > 2 for key in shape)):
                return shape

    def lexmin_form(f: list[Parts]) -> Parts:
        return compose_all([min(a, a[::-1]) for a in f])

    # (command, target length of the product), up to about 12k parts.  Jobs
    # of about the same cost sit at the median latency (factor ~6000 twice)
    # and four at the tail (factor ~9000 twice, equiv ~6000 twice), so that
    # neither falls on a step between job sizes.
    slots = [("factor", 12000), ("normalize", 12000), ("equiv", 9000), ("factor", 9000),
             ("factor", 9000), ("equiv", 6000)]
    slots += [("factor", 6000), ("normalize", 6000), ("equiv", 4500)] * 2
    slots += [(cmd, t) for t in (4500, 3000) for cmd in ("factor", "normalize")]
    slots += [("equiv", 3000), ("equiv", 6000)]
    for cmd, target in slots:
        shape = shape_near(target)
        f = [rng.choice(groups[key]) for key in shape]
        x = compose_all(f)
        label = f"{cmd} ~{target}"
        if cmd == "factor":
            w.jobs.append(Job(label, ["factor", fmt(x), "--json"],
                              {"exit": 0, "factors": [list(a) for a in f]}))
        elif cmd == "normalize":
            w.jobs.append(Job(label, ["normalize", fmt(x), "--json"],
                              {"exit": 0, "normal_form": list(lexmin_form(f))}))
        elif shapes.random() < 0.5:
            # reverse a nonempty subset of the factors: same function
            flip = rng.sample(range(len(f)), rng.randint(1, len(f)))
            g = [a[::-1] if i in flip else a for i, a in enumerate(f)]
            nf = list(lexmin_form(f))
            w.jobs.append(Job(label, ["equiv", fmt(x), fmt(compose_all(g)), "--json"],
                              {"exit": 0, "equivalent": True, "normal_forms": [nf, nf]}))
        else:
            # replace one factor by an atom of its group other than it and its
            # reversal: a different function of the same size and length
            i = rng.choice([i for i, key in enumerate(shape) if len(groups[key]) > 2])
            others = [a for a in groups[shape[i]] if a not in (f[i], f[i][::-1])]
            g = f[:i] + [rng.choice(others)] + f[i + 1:]
            w.jobs.append(Job(label, ["equiv", fmt(x), fmt(compose_all(g)), "--json"],
                              {"exit": 1, "equivalent": False,
                               "normal_forms": [list(lexmin_form(f)), list(lexmin_form(g))]}))
    # one huge part: the split search loops over the size, not the length
    for big in (3_000_000, 10_000_000):
        while True:
            x = [rng.randint(1, 9) for _ in range(rng.randint(2, 4))]
            x.insert(rng.randrange(len(x) + 1), big + rng.randrange(big // 50))
            x = tuple(x)
            if x != x[::-1]:
                break
        w.jobs.append(Job(f"equiv rev part {big:.0e}", ["equiv", fmt(x), fmt(x[::-1]), "--json"],
                          {"exit": 0, "equivalent": True, "same_class_as": list(x)}))
    a, b = (1, 2, 1, 3, 2), (1, 3, 2, 1, 2)
    same = fingerprint(a) == fingerprint(b)
    w.jobs.append(Job("equiv fixed", ["equiv", fmt(a), fmt(b), "--json"],
                      {"exit": 0 if same else 1, "equivalent": same}))


def _count_length(rng: random.Random, w: Workload) -> None:
    for n in (2520, 1680, 1260, 1260, 840, 840, 720, 720, 360):
        w.jobs.append(Job(f"count-length {n}", ["count-length", str(n), "--json"],
                          {"exit": 0, "length_poly_of": n}))
    for n in (720, 720, 360):
        w.jobs.append(Job(f"count-length {n} --refined",
                          ["count-length", str(n), "--refined", "--json"],
                          {"exit": 0, "refined_of": n}))
    # each bound runs twice against one cache directory: whichever runs
    # first stores, the other loads and must print the same bytes
    for i, (base, variant) in enumerate([(3000, "all"), (2000, "irreducible"),
                                         (1000, "lexmin"), (33, "compositions")]):
        bound = base + rng.randrange(base // 30 + 1)
        cache_dir = f"{CACHE_ROOT}/{i}"
        argv = ["count", "--max-n", str(bound), "--variant", variant, "--cache-dir", cache_dir]
        expect = {"exit": 0, "sequence": variant, "bound": bound, "cache_dir": cache_dir}
        w.jobs.append(Job(f"count {base} {variant}", argv, expect))
        w.jobs.append(Job(f"count {base} {variant}", argv, dict(expect)))
    for name, variant in [("b120421_historical.txt", "all"),
                          ("b007318_row_sums.txt", "compositions")]:
        bfile = f"fixtures/{name}"
        w.jobs.append(Job(f"oeis-compare {name}",
                          ["oeis-compare", bfile, "--variant", variant, "--json"],
                          {"exit": None, "bfile": bfile, "variant": variant}))


def _oracle_check(w: Workload) -> None:
    # one parallel run, a few large checks and many mid-sized ones
    mix = {10: 3, 11: 4, 12: 7, 13: 4, 14: 1}
    for n, copies in mix.items():
        for _ in range(copies):
            w.jobs.append(Job(f"oracle-check {n}", ["oracle-check", str(n), "--json"],
                              {"exit": 0, "oracle_check": n}))
    w.jobs.append(Job("oracle-check 15 --jobs 2",
                      ["oracle-check", "15", "--jobs", "2", "--json"],
                      {"exit": 0, "oracle_check": 15}))


def _exhaustive(w: Workload) -> None:
    # n = 18 with two workers runs three times: the tail latency falls in
    # the middle of those runs, not on the step to the next job
    for n, jobs, copies in [(20, 2, 1), (19, 1, 1), (19, 2, 1), (18, 1, 1), (18, 2, 3),
                            (17, 1, 1), (17, 2, 1), (16, 1, 1), (16, 2, 1), (15, 1, 1),
                            (15, 2, 1), (14, 1, 1), (14, 2, 1), (13, 1, 1)]:
        for _ in range(copies):
            w.jobs.append(Job(f"classes {n} jobs {jobs}", ["classes", str(n), str(jobs)],
                              {"exit": 0, "classes_of": n}, lib=True))
    for n in range(12, 16):
        w.jobs.append(Job(f"histogram {n}", ["histogram", str(n)],
                          {"exit": 0, "histogram_of": n}, lib=True))


def build(name: str, seed: int) -> Workload:
    """The job list of one workload, in run order."""
    rng = random.Random(f"{name}:{seed}")
    w = Workload(name, seed)
    if name == "equiv-long":
        _equiv_long(rng, w)
    elif name == "count-length":
        _count_length(rng, w)
    elif name == "oracle-check":
        _oracle_check(w)
    elif name == "exhaustive":
        _exhaustive(w)
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(w.jobs)
    stored = set()
    for i, job in enumerate(w.jobs):
        job.id = i
        if "cache_dir" in job.expect:
            warm = job.expect["cache_dir"] in stored
            stored.add(job.expect["cache_dir"])
            job.expect["warm"] = warm
            job.label += " warm" if warm else " cold"
    return w
