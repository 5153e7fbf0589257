"""Independent reference implementations used only as test oracles.

Everything here is deliberately naive (plain loops, hand-rolled Gaussian
elimination) and shares no code with the package under test.
"""

import math
import random

DAY_S = 86400


def naive_rmse(a, b):
    assert len(a) == len(b) and len(a) > 0
    total = 0.0
    for x, y in zip(a, b):
        total += (x - y) ** 2
    return math.sqrt(total / len(a))


def naive_pearson(a, b):
    assert len(a) == len(b) and len(a) >= 2
    n = len(a)
    ma = sum(a) / n
    mb = sum(b) / n
    num = sxx = syy = 0.0
    for x, y in zip(a, b):
        num += (x - ma) * (y - mb)
        sxx += (x - ma) ** 2
        syy += (y - mb) ** 2
    if sxx == 0.0 or syy == 0.0:
        return None
    return num / (math.sqrt(sxx) * math.sqrt(syy))


def naive_sample_std(values):
    n = len(values)
    if n < 2:
        return None
    m = sum(values) / n
    return math.sqrt(sum((v - m) ** 2 for v in values) / (n - 1))


def sort_extrema(values):
    s = sorted(values)
    return s[0], s[-1]


def gauss_solve(a, b):
    """Solve a dense linear system by Gaussian elimination with partial
    pivoting. ``a`` is a list of row lists, ``b`` a list."""
    n = len(a)
    m = [row[:] + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(m[r][col]))
        if abs(m[pivot][col]) < 1e-300:
            raise ZeroDivisionError("singular system")
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            for c in range(col, n + 1):
                m[r][c] -= f * m[col][c]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        s = m[r][n] - sum(m[r][c] * x[c] for c in range(r + 1, n))
        x[r] = s / m[r][r]
    return x


def normal_equations_quadratic(xs, ys):
    """Least-squares quadratic fit via explicitly assembled 3x3 normal
    equations, solved by Gaussian elimination. Returns (a, b, c) for
    y = a*x^2 + b*x + c."""
    n = len(xs)
    s = {k: sum(x**k for x in xs) for k in range(5)}
    sy = sum(ys)
    sxy = sum(x * y for x, y in zip(xs, ys))
    sx2y = sum(x * x * y for x, y in zip(xs, ys))
    mat = [
        [s[4], s[3], s[2]],
        [s[3], s[2], s[1]],
        [s[2], s[1], float(n)],
    ]
    rhs = [sx2y, sxy, sy]
    return gauss_solve(mat, rhs)


def naive_rain_events(seed, rate_per_day, upto_s):
    """Rain arrivals (time_s, strength) of every day up to and including
    the day containing ``upto_s``, every day redrawn from its own seeded
    generator on each call, then sorted as one list."""
    events = []
    for day in range(upto_s // DAY_S + 1):
        rng = random.Random(f"rain:{seed}:{day}")
        n, p, target = 0, rng.random(), math.exp(-rate_per_day)
        while p > target:
            n += 1
            p *= rng.random()
        for _ in range(n):
            events.append((day * DAY_S + int(rng.random() * DAY_S), 0.5 + 0.5 * rng.random()))
    events.sort()
    return events

