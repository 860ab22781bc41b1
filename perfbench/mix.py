"""Seeded request mixes, one per workload.

A mix is a fixed list of ``MIX_SIZE`` CLI requests made only from the
workload name and the seed: the same seed gives the same argv lists and
the same coefficient-file bytes.

The latency percentiles are order statistics of one mix, so the mix of
every seed must have nearly the same cost distribution.  The input that
sets a request's cost (dimension, identity range) is stratified: request
i takes a random value from the i-th of ``MIX_SIZE`` equal slices of its
range.  The other cost factors (source kind, output format, convergence
policy, pole points) follow a fixed cycle over i, so every stretch of
dimensions sees every combination.  The seed draws everything else
(the value within each slice, centers, parameters, tolerances, digits,
evaluation points) and the order in which the requests are sent.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction

import oracles
from oracles import ratio

MIX_SIZE = 40
TOLERANCES = ("1e-6", "1e-9", "1e-12", "1/100000000")
CSV_DIGITS = (12, 20, None, 45)  # None: the CLI default of 30
NAMED_SHIFTS = {name: terms[0][2] for name, terms in oracles.NAMED_TERMS.items()}
FLOAT_WIDTHS = (64, 128, 256)
# 256-bit tables straddle m = 132 and cost ten times a 64-bit one, so they
# get one slot in six
FLOAT_WIDTH_CYCLE = (64, 128, 64, 128, 64, 256)


@dataclass(frozen=True)
class Request:
    command: str
    argv: tuple[str, ...]
    spec: dict
    files: tuple[tuple[str, bytes], ...] = ()


@dataclass(frozen=True)
class Source:
    kind: str  # "named", "mobius" or "file"
    terms: tuple
    x0: Fraction
    selector: str | None = None


KINDS = ("named", "mobius", "file")
FORMATS = ("csv", "json")
BOTH = ((True, True), (True, False), (False, True), (False, False))


def stratified(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """n ascending integers in [lo, hi], one from each of n equal slices."""
    return [lo + int((hi - lo + 1) * (i + rng.random()) / n) for i in range(n)]


def cycle(choices, i: int, every: int = 1):
    """The fixed cycle of a design factor over request index i."""
    return choices[(i // every) % len(choices)]


def shuffled(rng: random.Random, requests: list[Request]) -> list[Request]:
    rng.shuffle(requests)
    return requests


# Denominators of b by size class: the row bit size, and with it the cost
# of the exact arithmetic, grows with them.
B_DENOMINATORS = ((1, 2), (3, 4, 5), (7, 13))


def sample_b(rng: random.Random, size: int) -> Fraction:
    """b = x0 + shift in (1/2, 10]: integer coefficients at b = 1, fast
    convergence near 1, slow alternating convergence near 1/2, slow
    monotone convergence near 10."""
    q = rng.choice(B_DENOMINATORS[size])
    return Fraction(rng.randint(q // 2 + 1, 10 * q), q)


def sample_source(rng: random.Random, kind: str, size: int) -> Source:
    """A source of the given kind and bit-size class; coefficient files
    hold two shifted reciprocals, three in the largest class."""
    if kind == "named":
        name = rng.choice(sorted(NAMED_SHIFTS))
        return Source(kind, oracles.NAMED_TERMS[name],
                      sample_b(rng, size) - NAMED_SHIFTS[name], name)
    if kind == "mobius":
        while True:
            a, b, c, d = rng.randint(0, 6), rng.randint(0, 9), rng.randint(1, 3), rng.randint(0, 7)
            if b * c != a * d:
                break
        terms = oracles.mobius_terms(a, b, c, d)
        return Source(kind, terms, sample_b(rng, size) - terms[0][2], f"mobius-{a}-{b}-{c}-{d}")
    x0 = Fraction(rng.randint(-8, 16), rng.choice((1, 2, 3, 4)))
    terms = []
    for _ in range(3 if size == len(B_DENOMINATORS) - 1 else 2):
        offset = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
        weight = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 3, 5)))
        terms.append((offset, weight, sample_b(rng, size) - x0))
    return Source(kind, tuple(terms), x0)


def source_size(i: int) -> int:
    """Bit-size class of request i: cycles once per kind-format round."""
    return cycle(range(len(B_DENOMINATORS)), i, len(KINDS) * len(FORMATS))


def coefficient_file(source: Source, n: int) -> bytes:
    """A coefficient file in the documented format, from exact Fractions."""
    radius = oracles.hypothesis_radius(source.terms, source.x0)
    payload = {
        "center": ratio(source.x0),
        "coeffs": [ratio(c) for c in oracles.taylor(source.terms, source.x0, n)],
        "exact": True,
        "meta": {
            "hypothesis_radius": None if radius is None else ratio(radius),
            "description": f"sum of {len(source.terms)} shifted reciprocals",
        },
    }
    return (json.dumps(payload, indent=1) + "\n").encode()


def source_args(source: Source, index: int, n_coeffs: int, rng: random.Random):
    """argv fragment and files for a source; files get a few spare
    coefficients beyond the ones the request needs."""
    if source.kind == "file":
        name = f"coeffs-{index:02d}.json"
        data = coefficient_file(source, n_coeffs + rng.randint(0, 3))
        return ["--coeffs", name], ((name, data),)
    return ["--corpus", source.selector, f"--x0={ratio(source.x0)}"], ()


def base_spec(source: Source) -> dict:
    return {"terms": source.terms, "x0": source.x0,
            "source": "file" if source.kind == "file" else "corpus"}


def csv_digits(rng: random.Random, fmt: str) -> tuple[list[str], int]:
    digits = rng.choice(CSV_DIGITS) if fmt == "csv" else None
    return ([f"--digits={digits}"] if digits else []), (digits or 30)


def estimate_exact(seed: int) -> list[Request]:
    """Exact estimate; half the requests pass --require-converged, and
    converged and unconverged sources are drawn equally often."""
    rng = random.Random(f"estimate-exact/{seed}")
    n = MIX_SIZE
    dims = stratified(rng, n, 25, 125)
    requests = []
    for i in range(n):
        kind, fmt = cycle(KINDS, i), cycle(FORMATS, i)
        require, want_converged = cycle(BOTH, i, 2)
        for _ in range(5000):
            tol_text = rng.choice(TOLERANCES)
            tol = Fraction(tol_text)
            source = sample_source(rng, kind, source_size(i))
            if oracles.predict_converged(source.terms, source.x0, dims[i], tol) == want_converged:
                break
        else:
            raise RuntimeError(f"no {kind} source with converged={want_converged} "
                               f"at m_max={dims[i]}")
        args, files = source_args(source, i, dims[i] + 1, rng)
        digit_args, digits = csv_digits(rng, fmt)
        argv = ["estimate", *args, f"--m-max={dims[i]}", f"--tol={tol_text}",
                f"--format={fmt}", *digit_args]
        if require:
            argv.append("--require-converged")
        spec = {**base_spec(source), "mode": "exact", "m_max": dims[i], "tol": tol,
                "format": fmt, "digits": digits, "require": require,
                "converged": want_converged}
        requests.append(Request("estimate", tuple(argv), spec, files))
    return shuffled(rng, requests)


def eval_point(rng: random.Random) -> str:
    """A rational, a large power of ten, or a two-place decimal."""
    form = rng.randrange(3)
    if form == 0:
        return ratio(Fraction(rng.randint(-40, 200), rng.choice((1, 2, 3, 4, 8))))
    if form == 1:
        return str(10 ** rng.randint(2, 6))
    return f"{rng.randint(-99, 999)}.{rng.randint(0, 99):02d}"


def approximate_eval(seed: int) -> list[Request]:
    """One approximant per request with 4-8 evaluation points; half the
    requests include the approximant's pole x0 - 1, half a source pole."""
    rng = random.Random(f"approximate-eval/{seed}")
    n = MIX_SIZE
    dims = stratified(rng, n, 10, 50)
    requests = []
    for i in range(n):
        fmt = cycle(FORMATS, i)
        source = sample_source(rng, cycle(KINDS, i), source_size(i))
        with_pole, with_source_pole = cycle(BOTH, i, 2)
        extra = with_pole + with_source_pole
        texts = [eval_point(rng) for _ in range(rng.randint(4 - extra, 8 - extra))]
        if with_pole:
            texts.append(ratio(source.x0 - 1))
        if with_source_pole:
            texts.append(ratio(-rng.choice(source.terms)[2]))
        rng.shuffle(texts)
        cut = sorted(rng.sample(range(1, len(texts)), rng.randint(0, 2)))
        groups = [texts[a:b] for a, b in zip([0, *cut], [*cut, len(texts)])]
        args, files = source_args(source, i, dims[i] + 1, rng)
        digit_args, digits = csv_digits(rng, fmt)
        argv = ["approximate", *args, f"--m={dims[i]}",
                *(f"--eval={','.join(g)}" for g in groups),
                f"--format={fmt}", *digit_args]
        spec = {**base_spec(source), "m": dims[i], "points": [Fraction(t) for t in texts],
                "format": fmt, "digits": digits}
        requests.append(Request("approximate", tuple(argv), spec, files))
    return shuffled(rng, requests)


def verify_identities(seed: int) -> list[Request]:
    """Exhaustive identity suite over seeded rectangular ranges; the
    k slices are paired with the m slices by a fixed permutation."""
    rng = random.Random(f"verify-identities/{seed}")
    n = MIX_SIZE
    m_maxes = stratified(rng, n, 6, 16)
    k_maxes = stratified(rng, n, 10, 30)
    requests = []
    for i in range(n):
        m, k, fmt = m_maxes[i], k_maxes[(17 * i) % n], cycle(FORMATS, i)
        requests.append(Request(
            "verify-identities",
            ("verify-identities", f"--m-max={m}", f"--k-max={k}", f"--format={fmt}"),
            {"m_max": m, "k_max": k, "format": fmt}))
    return shuffled(rng, requests)


def hazard_line(precision: int) -> int:
    """Smallest dimension at which float mode warns."""
    m = 0
    while not oracles.is_hazard(m, precision):
        m += 1
    return m


def estimate_float(seed: int) -> list[Request]:
    """Float estimate at 64, 128 and 256 bits, with m_max drawn evenly
    from 16 below to 15 above each width's warning line."""
    rng = random.Random(f"estimate-float/{seed}")
    n = MIX_SIZE
    widths = [cycle(FLOAT_WIDTH_CYCLE, i) for i in range(n)]
    dims = [0] * n
    for prec in FLOAT_WIDTHS:
        slots = [i for i in range(n) if widths[i] == prec]
        line = hazard_line(prec)
        for i, offset in zip(slots, stratified(rng, len(slots), -16, 15)):
            dims[i] = line + offset
    requests = []
    for i in range(n):
        source = sample_source(rng, cycle(KINDS, i, len(FLOAT_WIDTH_CYCLE)),
                               cycle(range(len(B_DENOMINATORS)), i, 9))
        tol_text = rng.choice(TOLERANCES)
        args, files = source_args(source, i, dims[i] + 1, rng)
        argv = ["estimate", *args, f"--m-max={dims[i]}", "--mode=float",
                f"--precision={widths[i]}", f"--tol={tol_text}", "--format=json"]
        spec = {**base_spec(source), "mode": "float", "m_max": dims[i], "precision": widths[i],
                "tol": Fraction(tol_text), "format": "json"}
        requests.append(Request("estimate", tuple(argv), spec, files))
    return shuffled(rng, requests)


WORKLOADS = {
    "estimate-exact": estimate_exact,
    "approximate-eval": approximate_eval,
    "verify-identities": verify_identities,
    "estimate-float": estimate_float,
}


def fingerprint(requests: list[Request]) -> str:
    h = hashlib.sha256()
    for r in requests:
        h.update(json.dumps(r.argv).encode())
        for name, data in r.files:
            h.update(name.encode())
            h.update(data)
    return h.hexdigest()[:16]


def coverage_gaps(workload: str, requests: list[Request]) -> list[str]:
    """Branches the workload claims to cover that its mix misses."""
    specs = [r.spec for r in requests]
    claims: dict[str, bool] = {}
    if workload in ("estimate-exact", "approximate-eval", "estimate-float"):
        claims["corpus source"] = any(s["source"] == "corpus" for s in specs)
        claims["file source"] = any(s["source"] == "file" for s in specs)
    if workload != "estimate-float":
        claims["csv output"] = any(s["format"] == "csv" for s in specs)
        claims["json output"] = any(s["format"] == "json" for s in specs)
    if workload == "estimate-exact":
        gated = [s["converged"] for s in specs if s["require"]]
        claims["converged under --require-converged"] = True in gated
        claims["unconverged under --require-converged"] = False in gated
    if workload == "approximate-eval":
        def split(s):
            return [x - s["x0"] + 1 == 0 for x in s["points"]]
        flags = [f for s in specs for f in split(s)]
        claims["approximant pole point"] = True in flags
        claims["regular point"] = False in flags
        claims["source pole point"] = any(
            s["source"] == "corpus" and oracles.value_at(s["terms"], x) is None
            for s in specs for x in s["points"])
    if workload == "estimate-float":
        for prec in FLOAT_WIDTHS:
            hazards = [oracles.is_hazard(s["m_max"], prec) for s in specs if s["precision"] == prec]
            claims[f"hazard at {prec} bits"] = True in hazards
            claims[f"non-hazard at {prec} bits"] = False in hazards
    return [name for name, covered in claims.items() if not covered]
