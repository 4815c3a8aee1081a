"""Per-span-name self time over a Chrome trace written by src/obs.

A span's self time is its duration minus the time its child spans on the
same thread cover. Spans of the work-stealing pool (``par.for``,
``par.task``) are transparent: they only say that a layer's work ran as
pool tasks, so their self time is charged to the nearest enclosing
non-pool span on the same thread. A pool span with no such ancestor (a
worker lane running a task of some other thread's region) keeps its self
time under its own name.

Usage: python3 trace_agg.py trace.json   (prints a table, slowest first)
"""

import json
import sys

TRANSPARENT_PREFIXES = ("par.",)


def _transparent(name):
    return name.startswith(TRANSPARENT_PREFIXES)


def load_events(path):
    with open(path) as handle:
        data = json.load(handle)
    return data["traceEvents"] if isinstance(data, dict) else data


def spans(events):
    """Closed spans as dicts: name, tid, depth (open spans around it on
    its thread), start, end (microseconds), and the self time charged to
    the span's own name (``self``)."""
    by_thread = {}
    for event in events:
        if event.get("ph") in ("B", "E"):
            by_thread.setdefault(event["tid"], []).append(event)
    closed = []
    for tid, thread_events in by_thread.items():
        stack = []
        for event in thread_events:
            if event["ph"] == "B":
                stack.append({"name": event["name"], "tid": tid,
                              "depth": len(stack),
                              "start": float(event["ts"]), "covered": 0.0})
                continue
            if not stack:
                raise ValueError(f"unmatched E event for {event['name']!r} "
                                 f"on thread {tid}")
            span = stack.pop()
            if span["name"] != event["name"]:
                raise ValueError(f"E event {event['name']!r} closes "
                                 f"{span['name']!r} on thread {tid}")
            span["end"] = float(event["ts"])
            duration = span["end"] - span["start"]
            own = duration - span["covered"]
            parent = stack[-1] if stack else None
            if _transparent(span["name"]) and _has_layer(stack):
                # Hand our own time up: the parent sees only the time our
                # non-transparent descendants cover.
                parent["covered"] += span["covered"]
                span["self"] = 0.0
            else:
                if parent is not None:
                    parent["covered"] += duration
                span["self"] = own
            closed.append(span)
        if stack:
            raise ValueError(f"span {stack[-1]['name']!r} on thread {tid} "
                             "never closes")
    return closed


def _has_layer(stack):
    return any(not _transparent(span["name"]) for span in stack)


def aggregate(events, window=None):
    """name -> {"count", "inclusive_ms", "self_ms"}. With ``window`` =
    (start_us, end_us), only spans lying wholly inside it count."""
    table = {}
    for span in spans(events):
        if window is not None and (span["start"] < window[0]
                                   or span["end"] > window[1]):
            continue
        row = table.setdefault(span["name"], {"count": 0,
                                              "inclusive_ms": 0.0,
                                              "self_ms": 0.0})
        row["count"] += 1
        row["inclusive_ms"] += (span["end"] - span["start"]) / 1e3
        row["self_ms"] += span["self"] / 1e3
    return table


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    table = aggregate(load_events(argv[1]))
    print(f"{'span':44} {'count':>7} {'self ms':>12} {'incl ms':>12}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_ms"]):
        print(f"{name:44} {row['count']:7d} {row['self_ms']:12.3f} "
              f"{row['inclusive_ms']:12.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
