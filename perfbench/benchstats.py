"""Statistics of the repository benchmark, kept in one tested place.

run.py summarizes each run's raw samples with these functions and
compare.py judges two result sets with them (tests: perfbench/tests).
"""

import array
import math
import statistics
import struct

# One span as perfbench_driver writes it (driver/Tracer.h, struct Span):
# start ns, end ns, parent index (-1 = root), op id, instructions, name id.
SPAN_FORMAT = "<qqiIIHH"


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def relative_spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def rank(n, p):
    """1-based nearest-rank position of the p-th percentile among n samples."""
    return max(1, math.ceil(p / 100.0 * n))


def samples_beyond(n, p):
    """Samples ranked after the p-th percentile of n samples."""
    return n - rank(n, p)


def percentile(sorted_values, p, min_beyond=10):
    """Nearest-rank p-th percentile of sorted_values, or None when fewer than
    min_beyond samples lie beyond it (too few to say anything about it)."""
    n = len(sorted_values)
    if n == 0 or samples_beyond(n, p) < min_beyond:
        return None
    return sorted_values[rank(n, p) - 1]


def highest_percentile(n, cap=99, min_beyond=10):
    """The highest whole percentile up to cap with at least min_beyond of n
    samples beyond it, or None."""
    for p in range(cap, 0, -1):
        if samples_beyond(n, p) >= min_beyond:
            return p
    return None


def tail(sorted_values, cap=99):
    """(percentile, value) of the latency tail: the highest percentile up to
    cap that keeps ten samples beyond it, and never below the median. With
    too few samples for any tail above the median, that is the median."""
    p = highest_percentile(len(sorted_values), cap)
    if p is None or p < 50:
        return 50, median(sorted_values)
    return p, sorted_values[rank(len(sorted_values), p) - 1]


def windows(latencies, done_s, width_s=1.0):
    """Per-op latencies grouped by the width_s-second window their op
    completed in; each group sorted, groups in time order."""
    groups = {}
    for latency, done in zip(latencies, done_s):
        groups.setdefault(int(done // width_s), []).append(latency)
    return [sorted(groups[key]) for key in sorted(groups)]


def calm(values, better):
    """The quartile of values on the better side: a run's figure for the
    periods its host left it alone. On a shared VM a run's median moves with
    neighbours' load in multi-second spells; this quartile moves less."""
    q1, _, q3 = quartiles(values)
    return q3 if better == "higher" else q1


def failure_share(attempted, failed):
    """Failed ops as a share of attempted ones."""
    if attempted <= 0:
        raise ValueError("no ops attempted")
    return failed / attempted


def read_spans(data):
    """Iterates the spans in the driver's binary spans file contents."""
    return struct.iter_unpack(SPAN_FORMAT, data)


def self_times(spans):
    """Per span name: [calls, self ns, instructions], where a span's self
    time is its duration minus the durations of its direct children, plus
    the durations of the root spans (one per op). Every parent must come
    before its children, as the driver writes them; one pass then
    suffices."""
    self_ns = array.array("q")
    names = array.array("H")
    per_name = {}
    roots = array.array("q")
    for start, end, parent, _op, instrs, name, *_ in spans:
        duration = end - start
        self_ns.append(duration)
        names.append(name)
        record = per_name.setdefault(name, [0, 0, 0])
        record[0] += 1
        record[2] += instrs
        if parent >= 0:
            self_ns[parent] -= duration
        else:
            roots.append(duration)
    for duration, name in zip(self_ns, names):
        per_name[name][1] += duration
    return per_name, roots


def judge(old, new, better, bound):
    """Verdict for one workload x metric from paired runs of two commits
    (old[i] pairs with new[i]): better only when the new side wins at least
    nine tenths of the pairs and the medians differ by more than the old
    side's quartile distance; worse when the new median is worse than the
    old one by more than bound (a share of the old median); unresolved when
    the spread of either side exceeds bound and not every new run beats
    every old run; otherwise within-bound."""
    if len(old) != len(new) or not old:
        raise ValueError("need the same, nonzero number of runs per side")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for o, n in zip(old, new) if sign * (n - o) > 0)
    old_q, new_q = quartiles(old), quartiles(new)
    old_med, new_med = old_q[1], new_q[1]
    gain = sign * (new_med - old_med)
    all_better = (min(new) > max(old)) if sign > 0 else (max(new) < min(old))
    spread = max(relative_spread(old), relative_spread(new))
    if wins >= 0.9 * len(old) and gain > old_q[2] - old_q[0]:
        verdict = "better"
    elif -gain > bound * abs(old_med):
        verdict = "worse"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "within-bound"
    return {
        "old": old_q,
        "new": new_q,
        "change": gain / abs(old_med) if old_med else math.inf,
        "win_share": wins / len(old),
        "verdict": verdict,
    }
