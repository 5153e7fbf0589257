"""Independent reference implementations used only as test oracles.

Everything here is deliberately naive (plain loops, hand-rolled Gaussian
elimination) and shares no code with the package under test.
"""

import csv
import io
import json
import math
import os
import random
from datetime import datetime, timezone
from xml.etree import ElementTree as ET

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


def naive_align_nearest(sensor, reference, tolerance_s):
    """Each reference point paired with the nearest sensor point, the
    earliest of equally near ones (as ``numpy.argmin`` picks), when it is
    within ``tolerance_s``. A linear scan per point; needs no ordering."""
    t = [ts for ts, _ in sensor]
    pairs = []
    for rt, rv in reference:
        if t:
            i = min(range(len(t)), key=lambda i: abs(t[i] - rt))
            if abs(t[i] - rt) <= tolerance_s:
                pairs.append((sensor[i][1], rv))
    return pairs


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


def naive_query(rows, profile_id=None, start_ts=None, end_ts=None, depths=None, channels=None):
    """Every appended row (in append order) of ``profile_id`` with a node
    timestamp in [start_ts, end_ts) that passes the depth and channel
    filters, stably sorted by (timestamp, profile, depth, channel, seq)."""
    out = []
    for r in rows:
        if profile_id is not None and r.profile_id != profile_id:
            continue
        if start_ts is not None and r.timestamp < start_ts:
            continue
        if end_ts is not None and r.timestamp >= end_ts:
            continue
        if depths is not None and r.depth_cm not in depths:
            continue
        if channels is not None and r.channel not in channels:
            continue
        out.append(r)
    out.sort(key=lambda r: (r.timestamp, r.profile_id, r.depth_cm, r.channel.value, r.seq))
    return out


NAIVE_CSV_FIELDS = ("timestamp", "recv_timestamp", "profile", "depth_cm",
                    "channel", "seq", "value", "vwc_percent")


def naive_iso_utc(ts):
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def naive_record(row):
    """One StoredRow as a dict of its export fields, timestamps as text."""
    return {
        "timestamp": naive_iso_utc(row.timestamp),
        "recv_timestamp": naive_iso_utc(row.recv_timestamp),
        "profile": row.profile_id,
        "depth_cm": row.depth_cm,
        "channel": row.channel.value,
        "seq": row.seq,
        "value": row.value,
        "vwc_percent": row.vwc_percent,
    }


def naive_csv_line(row):
    """One StoredRow as a line of its partition file, the way the store
    encoded rows one at a time: a record dict, then per field an empty
    string for None, repr for a float and the value itself otherwise,
    written by a fresh csv.writer."""
    rec = naive_record(row)
    vals = []
    for name in NAIVE_CSV_FIELDS:
        v = rec[name]
        if v is None:
            vals.append("")
        elif isinstance(v, float):
            vals.append(repr(v))
        else:
            vals.append(v)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(vals)
    return buf.getvalue().encode("ascii")


def naive_json_export(rows):
    """StoredRows as the JSON export was first written: their records,
    dumped whole by json.dumps(indent=2), then a newline."""
    return json.dumps([naive_record(r) for r in rows], indent=2).encode("ascii") + b"\n"


def naive_xml_export(rows):
    """StoredRows as the XML export was first written: a <readings> tree
    with one <reading> per row, its attributes the record's fields as text
    (repr for a float) and no vwc_percent when there is none, indented by
    ElementTree and serialised as ASCII, then a newline."""
    root = ET.Element("readings")
    for r in rows:
        attrs = {}
        for name, v in naive_record(r).items():
            if v is not None:
                attrs[name] = repr(v) if isinstance(v, float) else str(v)
        ET.SubElement(root, "reading", attrs)
    ET.indent(root)
    return ET.tostring(root, encoding="unicode").encode("ascii") + b"\n"


def naive_looks_pub(line):
    """Whether the gateway counts ``line`` (str or bytes) as a PUB frame:
    its first space-separated token, once newlines at either end are
    stripped, is PUB. The rule the classifier applied to every line before
    it parsed the line."""
    head = line.strip(b"\n") if isinstance(line, bytes) else line.strip("\n")
    first = (head.split(b" ", 1) if isinstance(head, bytes) else head.split(" ", 1))[0]
    return first in ("PUB", b"PUB")


def naive_last_seqs(rows):
    """Highest seq per (profile, depth, channel value) among ``rows``."""
    out = {}
    for r in rows:
        key = (r.profile_id, r.depth_cm, r.channel.value)
        out[key] = max(out.get(key, 0), r.seq)
    return out


def naive_store_last_seqs(root, foreign=frozenset()):
    """Highest seq per (profile, depth, channel value) among the rows of
    every partition file under ``root`` ({root}/{profile}/*.csv), each
    read whole with csv.DictReader after its first line, the header; a
    final line without its newline (a torn write) is no row, and nor is a
    line in ``foreign``, the lines that another program wrote (one of
    which may stand in the header's place)."""
    out = {}
    if not os.path.isdir(root):
        return out
    for profile in sorted(os.listdir(root)):
        pdir = os.path.join(root, profile)
        if not os.path.isdir(pdir):
            continue
        for name in sorted(os.listdir(pdir)):
            if not name.endswith(".csv"):
                continue
            with open(os.path.join(pdir, name), "rb") as f:
                lines = f.read().split(b"\n")
            # The part after the last newline is torn or empty.
            complete = b"\n".join(line for line in lines[1:-1] if line not in foreign)
            for rec in csv.DictReader(io.StringIO(complete.decode("ascii")), NAIVE_CSV_FIELDS):
                # Two rows run together (an append after a torn line that
                # was not cut) read as one row with too many fields.
                assert None not in rec, f"{profile}/{name}: a row longer than its header"
                key = (rec["profile"], int(rec["depth_cm"]), rec["channel"])
                out[key] = max(out.get(key, 0), int(rec["seq"]))
    return out


def naive_store_skipped(root, foreign):
    """How many complete lines of the partition files under ``root``
    ({root}/{profile}/*.csv) are in ``foreign``, the lines that another
    program wrote, a file's first line too."""
    count = 0
    for profile in os.listdir(root):
        pdir = os.path.join(root, profile)
        if os.path.isdir(pdir):
            for name in os.listdir(pdir):
                if name.endswith(".csv"):
                    with open(os.path.join(pdir, name), "rb") as f:
                        count += sum(line in foreign for line in f.read().split(b"\n")[:-1])
    return count
