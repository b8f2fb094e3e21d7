#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON file produced by `--trace <path>`.

The telemetry trace sink (src/telemetry/trace_sink.h) records lifecycle
spans in sim-time — PCI transfers, bitstream decode/load, fabric execution
windows, batch holds, prefetches, card deaths — and exports them as Chrome
trace-event JSON that chrome://tracing and Perfetto open directly.  This
gate runs in CI on a real bench run and fails when the export is
malformed, so a refactor that breaks span bookkeeping (a lane emitting
overlapping occupancy windows, a span losing its function arg, a track
without metadata) is caught by the trace artifact step instead of by the
first person who opens the file in Perfetto.

Checks:
  * the file is JSON with a `traceEvents` list holding at least
    --min-events non-metadata events (default 1);
  * every event has a known phase (M metadata, X complete span, i instant)
    and the fields that phase requires; X durations are non-negative;
  * any B/E begin/end events balance per track (the sink emits only
    complete X spans, so an unpaired B or E means a foreign writer);
  * every event's (pid, tid) has thread_name metadata and its pid has
    process_name metadata — unlabeled tracks render as bare numbers;
  * per track, timestamps are sorted (the sink writes the deterministic
    (ts, pid, tid, seq) merge order);
  * spans carry the args their category promises: pci/engine/fabric spans
    name their request/client/function, prefetch and batch spans their
    function, dispatch instants their fleet ticket (request) and
    client/function/card;
  * hardware lanes are serialized: on tracks named pci, engine or fabric
    the spans must not overlap, because each mirrors a resource the
    simulator books exclusively.  Logical lanes (batch holds, fleet
    dispatch) may overlap and are exempt.

Exit status: 0 valid, 1 malformed, 2 usage or I/O error.  Only the Python
standard library is used.
"""

import argparse
import decimal
import json
import sys

# Lanes that mirror an exclusively-booked hardware resource; their spans
# must tile without overlap.  "batch" (refused-batch holds) and "dispatch"
# (routing decisions) are logical lanes where overlap is expected.
SERIALIZED_LANES = {"pci", "engine", "fabric"}

# Args each category promises on its events (trace_sink.cpp only writes an
# arg when the recorder passed it, so presence here is a real contract).
REQUIRED_ARGS = {
    "pci": ("request", "client", "function"),
    "engine": ("request", "client", "function"),
    "fabric": ("request", "client", "function"),
    "prefetch": ("function",),
    "batch": ("function",),
    "dispatch": ("request", "client", "function", "card"),
}


def fail(errors, message):
    errors.append(message)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            # Decimal keeps the fixed six-decimal microsecond timestamps
            # exact, so the overlap checks need no float tolerance.
            return json.load(f, parse_float=decimal.Decimal)
    except (OSError, json.JSONDecodeError) as err:
        print(f"check_trace: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)


def main():
    parser = argparse.ArgumentParser(
        description="Validate a Chrome trace-event JSON export."
    )
    parser.add_argument("trace", help="trace file written by `--trace <path>`")
    parser.add_argument(
        "--min-events",
        type=int,
        default=1,
        help="minimum number of span/instant events (default: %(default)s)",
    )
    args = parser.parse_args()

    doc = load(args.trace)
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        print(
            f"check_trace: {args.trace} has no traceEvents list", file=sys.stderr
        )
        return 1

    errors = []
    process_names = {}  # pid -> name
    track_names = {}  # (pid, tid) -> name
    track_events = {}  # (pid, tid) -> [event, ...] in file order
    be_depth = {}  # (pid, tid) -> open B count
    spans = instants = 0

    for index, event in enumerate(doc["traceEvents"]):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            fail(errors, f"{where}: not an object")
            continue
        phase = event.get("ph")
        pid = event.get("pid")
        if not isinstance(pid, int):
            fail(errors, f"{where}: missing integer pid")
            continue

        if phase == "M":
            meta = event.get("args", {}).get("name")
            if not isinstance(meta, str) or not meta:
                fail(errors, f"{where}: metadata without args.name")
            elif event.get("name") == "process_name":
                process_names[pid] = meta
            elif event.get("name") == "thread_name":
                track_names[(pid, event.get("tid"))] = meta
            continue

        tid = event.get("tid")
        if not isinstance(tid, int):
            fail(errors, f"{where}: missing integer tid")
            continue
        key = (pid, tid)

        if phase in ("B", "E"):
            depth = be_depth.get(key, 0) + (1 if phase == "B" else -1)
            if depth < 0:
                fail(errors, f"{where}: E without a matching B on track {key}")
            be_depth[key] = depth
            continue
        if phase not in ("X", "i"):
            fail(errors, f"{where}: unknown phase {phase!r}")
            continue

        name = event.get("name")
        category = event.get("cat")
        ts = event.get("ts")
        if not isinstance(name, str) or not name:
            fail(errors, f"{where}: missing name")
        if not isinstance(category, str) or not category:
            fail(errors, f"{where}: missing cat")
        if not isinstance(ts, (int, decimal.Decimal)):
            fail(errors, f"{where}: missing numeric ts")
            continue
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, decimal.Decimal)) or dur < 0:
                fail(errors, f"{where}: span without non-negative dur")
                continue
            spans += 1
        else:
            if event.get("s") not in ("t", "p", "g"):
                fail(errors, f"{where}: instant without a scope")
            instants += 1

        event_args = event.get("args")
        if not isinstance(event_args, dict):
            fail(errors, f"{where}: missing args object")
            event_args = {}
        for required in REQUIRED_ARGS.get(category, ()):
            if not isinstance(event_args.get(required), int):
                fail(
                    errors,
                    f"{where}: {category}/{name} lacks integer arg "
                    f"{required!r}",
                )
        track_events.setdefault(key, []).append(event)

    for key, depth in be_depth.items():
        if depth != 0:
            fail(errors, f"track {key}: {depth} unclosed B event(s)")

    for key, events in track_events.items():
        lane = track_names.get(key)
        if lane is None:
            fail(errors, f"track {key}: no thread_name metadata")
        if key[0] not in process_names:
            fail(errors, f"track {key}: pid has no process_name metadata")
        previous_ts = None
        busy_until = None  # serialized lanes: end of the latest span
        for event in events:
            ts = event["ts"]
            if previous_ts is not None and ts < previous_ts:
                fail(
                    errors,
                    f"track {key} ({lane}): timestamps regress at ts={ts}",
                )
            previous_ts = ts
            if lane in SERIALIZED_LANES and event["ph"] == "X":
                if busy_until is not None and ts < busy_until:
                    fail(
                        errors,
                        f"track {key} ({lane}): span "
                        f"{event.get('name')!r} at ts={ts} overlaps the "
                        f"previous span ending at {busy_until}",
                    )
                busy_until = ts + event["dur"]

    total = spans + instants
    if total < args.min_events:
        fail(
            errors,
            f"only {total} span/instant event(s), expected at least "
            f"{args.min_events} — was the sink ever attached?",
        )

    if errors:
        print(f"check_trace: {args.trace} is malformed:")
        for message in errors[:50]:
            print(f"  {message}")
        if len(errors) > 50:
            print(f"  ... and {len(errors) - 50} more")
        return 1
    print(
        f"check_trace: OK — {spans} span(s) + {instants} instant(s) across "
        f"{len(track_events)} track(s), {len(process_names)} process(es)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
