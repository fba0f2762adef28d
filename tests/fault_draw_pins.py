#!/usr/bin/env python3
"""Independent implementation of the campaign's direct fault draws.

Prints, for fixed (seed, cell, trial) keys, each clocked model's fault set
and spare-exhaustion time, and the adversarial budget, on a 40-node cycle
with k = 3 spares. tests/test_campaign.cpp pins these values
(FaultDraws.PinnedDraws); run

    python3 tests/fault_draw_pins.py

to regenerate them. It shares no code with src/: only the algorithms
(splitmix64 streams, Binomial inversion against an integer CDF table,
Floyd's subset, Renyi exponential order statistics, a partial Fisher-Yates
shuffle) and IEEE double arithmetic, with math.log1p/expm1/pow from the
same C library as the C++ build.
"""
import math

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


class Rng:
    def __init__(self, state):
        self.state = state

    @staticmethod
    def for_trial(seed, cell, trial):
        s = mix((seed + GOLDEN) & MASK)
        s = mix(s ^ ((cell + GOLDEN) & MASK))
        s = mix(s ^ ((trial + GOLDEN) & MASK))
        return Rng(s)

    def u64(self):
        self.state = (self.state + GOLDEN) & MASK
        return mix(self.state)

    def unit(self):
        return float(self.u64() >> 11) * 2.0**-53

    def below(self, bound):
        return (self.u64() * bound) >> 64


class BinomialTable:
    """P[F <= x] tabulated as floor(2^53 * cdf) from the mode outwards."""

    def __init__(self, n, p):
        self.lo, self.cut = 0, []
        if not p > 0.0:
            return
        if not p < 1.0:
            self.lo = n
            return
        odds = p / (1.0 - p)
        mode = min(n, int(float(n + 1) * p))

        def negligible(w, ratio):
            return ratio < 1.0 and w * ratio < 2.0**-54 * (1.0 - ratio)

        below, w = [], 1.0
        for i in range(mode, 0, -1):
            ratio = float(i) / float(n - i + 1) / odds
            w *= ratio
            below.append(w)
            if negligible(w, ratio):
                break
        weights = below[::-1] + [1.0]
        w = 1.0
        for i in range(mode, n):
            ratio = float(n - i) / float(i + 1) * odds
            w *= ratio
            weights.append(w)
            if negligible(w, ratio):
                break
        self.lo = mode - len(below)
        total = 0.0
        for x in weights:
            total += x
        partial = 0.0
        for x in weights[:-1]:
            partial += x
            self.cut.append(int(partial / total * 2.0**53))

    def draw(self, rng):
        m = rng.u64() >> 11
        return self.lo + sum(1 for c in self.cut if c <= m)


def floyd(rng, n, count):
    chosen = []
    for j in range(n - count, n):
        t = rng.below(j + 1)
        chosen.append(j if t in chosen else t)
    return sorted(chosen)


def exponential_order_statistics(rng, m, j):
    """The 1st..j-th smallest of m unit exponentials (Renyi)."""
    value, out = 0.0, []
    for taken in range(j):
        value += -math.log1p(-rng.unit()) / float(m - taken)
        out.append(value)
    return out


class OrderedSample:
    """A partial Fisher-Yates shuffle of range(m), one value per next()."""

    def __init__(self, m):
        self.m, self.taken, self.moved = m, 0, {}

    def next(self, rng):
        i = self.taken
        self.taken += 1
        r = i + rng.below(self.m - i)
        picked = self.moved.get(r, r)
        self.moved[r] = self.moved.get(i, i)
        return picked


def later_step(e, rate):
    return 2.0 + math.floor(e / rate)


def iid(rng, n, k, p):
    f = BinomialTable(n, p).draw(rng)
    faults = floyd(rng, n, f)
    if k < f:
        return faults, 1.0
    if k < n:
        return faults, later_step(exponential_order_statistics(rng, n - f, k + 1 - f)[-1],
                                  -math.log1p(-p))
    return faults, math.inf


def weibull(rng, n, k, shape, scale, horizon):
    x_h = math.pow(horizon / scale, shape)
    q = -math.expm1(-x_h)
    f = BinomialTable(n, q).draw(rng)
    faults = floyd(rng, n, f)

    def life(e):
        return scale * math.pow(e, 1.0 / shape)

    if k < f:
        v = -math.expm1(-exponential_order_statistics(rng, f, k + 1)[-1])
        return faults, life(-math.log1p(-q * v))
    if k < n:
        return faults, life(x_h + exponential_order_statistics(rng, n - f, k + 1 - f)[-1])
    return faults, math.inf


def clustered(rng, n, k, p, takes_down):
    f = BinomialTable(n, p).draw(rng)
    seeds = floyd(rng, n, f)
    faults = sorted(set(seeds) | {w for v in seeds for w in takes_down[v]})
    if k < f:
        return faults, 1.0
    if k >= n:
        return faults, math.inf
    rate = -math.log1p(-p)
    seed_clock = [(v, 1.0) for v in seeds]
    units, e = OrderedSample(n - f), 0.0
    for taken in range(k + 1 - f):
        unit = units.next(rng)
        for s in seeds:
            if s > unit:
                break
            unit += 1
        e += -math.log1p(-rng.unit()) / float(n - f - taken)
        seed_clock.append((unit, later_step(e, rate)))
    bound = seed_clock[-1][1]
    death = {}
    for v, t in seed_clock:
        death[v] = min(death.get(v, math.inf), t)
        if t + 1.0 <= bound:
            for w in takes_down[v]:
                death[w] = min(death.get(w, math.inf), t + 1.0)
    return faults, sorted(death.values())[k]


def main():
    n, k = 40, 3
    cycle = [sorted({(v - 1) % n, (v + 1) % n}) for v in range(n)]
    models = [
        ("iid", lambda r: iid(r, n, k, 0.1)),
        ("bus_iid", lambda r: iid(r, n, k, 0.1)),
        ("weibull", lambda r: weibull(r, n, k, 1.5, 100.0, 21.5)),
        ("clustered", lambda r: clustered(r, n, k, 0.05, cycle)),
        ("bus_clustered", lambda r: clustered(r, n, k, 0.05, cycle)),
    ]
    for cell, (name, draw) in enumerate(models):
        for trial in range(4):
            faults, time = draw(Rng.for_trial(2026, cell, trial))
            print(f"{name} cell {cell} trial {trial}: {{{', '.join(map(str, faults))}}} "
                  f"{time.hex()} ({time!r})")
    table = BinomialTable(n, 0.1)
    budgets = [table.draw(Rng.for_trial(2026, 5, t)) for t in range(8)]
    print("adversarial cell 5 budgets:", budgets)


if __name__ == "__main__":
    main()
