#!/usr/bin/env python3
"""Validate a vtsim-evlog-v1 job-lifecycle event log.

Standard library only (runs on a bare CI image). Mirrors the C++
writer (src/service/event_log.hh) check for check — keep the two and
tests/test_evlog.cc in lockstep:

 - every line is a JSON object tagged "v": "vtsim-evlog-v1";
 - "seq" is consecutive from 1 (nothing dropped or reordered);
 - "t_ms" never decreases;
 - every "event" kind is known and carries its required fields;
 - job events chain: "parent" is the seq of the job's previous event,
   and an admit's parent is the seq of a submit event;
 - at most one truncated line, and only at the tail (a daemon killed
   mid-write loses at most the line being written).

With --reconstruct, additionally rebuilds each finished job's timeline
from its events and asserts the phase segments (queued / running /
parked) are contiguous and that the running segments cover the job's
reported wall time to within --wall-tolerance (default 10%: the
finish event's wall_ms is measured around the launch calls, the event
timestamps around queue transitions, so scheduling overhead sits
between them).

Usage: validate_evlog.py <events.jsonl> [--reconstruct]
Exit status 0 when valid; 1 with one line per violation otherwise.
"""

import argparse
import json
import sys

# Fields beyond v/seq/t_ms/event that each kind must carry.
REQUIRED = {
    "log_open": ["pid"],
    "service_start": ["workers", "queue_limit", "preempt_every"],
    "listening": ["socket"],
    "accept_error": ["error"],
    "submit": ["workload", "scale", "priority"],
    "admit": ["job", "parent", "workload", "scale", "priority"],
    "reject": ["parent", "reason"],
    "start": ["job", "parent", "worker", "attempt", "wait_ms"],
    "resume": ["job", "parent", "worker", "wait_ms"],
    "checkpoint": ["job", "parent", "bytes", "write_ms"],
    "preempt": ["job", "parent", "by_priority"],
    "park": ["job", "parent", "slice_ms"],
    "crash": ["job", "parent", "attempt", "reason"],
    "retry": ["job", "parent", "from"],
    "finish": ["job", "parent", "cycles", "wall_ms", "verified"],
    "fail": ["job", "parent", "reason"],
    "cancel": ["job", "parent"],
    "drain": [],
    "service_stop": [],
}

# Job phase transitions driven by each kind, for --reconstruct.
# state -> event -> new state; "running" time accrues between
# start/resume and park/crash/finish/fail.
PHASE_ENTER = {"start": "running", "resume": "running"}
PHASE_EXIT = {"park": "parked", "crash": "queued", "retry": "queued",
              "finish": "done", "fail": "failed", "cancel": "cancelled"}


def parse_lines(path, errors):
    events = []
    with open(path, "rb") as handle:
        lines = handle.read().split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    for i, raw in enumerate(lines):
        if not raw:
            continue
        try:
            events.append(json.loads(raw))
        except ValueError:
            if i == len(lines) - 1:
                continue  # Mid-write kill: tolerated at the tail only.
            errors.append(f"line {i + 1}: unparseable non-tail line")
    return events


def check_events(events, errors):
    last_seq_per_job = {}
    kind_at_seq = {}
    last_t = -1.0
    for i, event in enumerate(events):
        where = f"event {i + 1}"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        if event.get("v") != "vtsim-evlog-v1":
            errors.append(f"{where}: bad or missing schema tag")
        if event.get("seq") != i + 1:
            errors.append(
                f"{where}: seq {event.get('seq')} != expected {i + 1}")
        t_ms = event.get("t_ms")
        if not isinstance(t_ms, (int, float)) or t_ms < last_t:
            errors.append(f"{where}: t_ms not monotonic")
        else:
            last_t = t_ms
        kind = event.get("event")
        kind_at_seq[i + 1] = kind
        if kind not in REQUIRED:
            errors.append(f"{where}: unknown event kind {kind!r}")
            continue
        for field in REQUIRED[kind]:
            if field not in event:
                errors.append(f"{where}: {kind} missing {field!r}")
        if "job" in event:
            job = event["job"]
            parent = event.get("parent")
            if kind == "admit":
                if kind_at_seq.get(parent) != "submit":
                    errors.append(
                        f"{where}: admit parent {parent} is not a submit")
            elif parent != last_seq_per_job.get(job):
                errors.append(
                    f"{where}: {kind} of job {job} has parent {parent},"
                    f" expected {last_seq_per_job.get(job)}")
            last_seq_per_job[job] = i + 1
    if events:
        if events[0].get("event") != "log_open":
            errors.append("first event is not log_open")
        if events[-1].get("event") not in ("service_stop", None):
            # A live daemon's log legitimately ends mid-stream; only
            # flag a *closed* log that ends on the wrong note.
            if any(e.get("event") == "drain" for e in events):
                errors.append("drained log does not end with service_stop")


def reconstruct(events, tolerance, errors):
    """Rebuild per-job timelines; check contiguity and wall coverage."""
    jobs = {}
    for event in events:
        job = event.get("job")
        if job is None:
            continue
        jobs.setdefault(job, []).append(event)
    reconstructed = 0
    for job, stream in sorted(jobs.items()):
        running_ms = 0.0
        run_open = None
        wall_ms = None
        for event in stream:
            kind = event["event"]
            if kind in PHASE_ENTER:
                if run_open is not None:
                    errors.append(f"job {job}: {kind} while running")
                run_open = event["t_ms"]
            elif kind in PHASE_EXIT:
                if kind in ("finish", "park", "crash"):
                    if run_open is None:
                        errors.append(f"job {job}: {kind} while not running")
                    else:
                        running_ms += event["t_ms"] - run_open
                        run_open = None
                if kind == "finish":
                    wall_ms = event["wall_ms"]
        if run_open is not None:
            errors.append(f"job {job}: log ends mid-slice")
        if wall_ms is None:
            continue  # Not finished (failed/cancelled/still running).
        reconstructed += 1
        # The run slices bracket the launch calls, so their sum can
        # only exceed the in-launch wall, never undercut it.
        if running_ms < wall_ms * (1.0 - tolerance):
            errors.append(
                f"job {job}: run slices sum to {running_ms:.1f}ms,"
                f" less than wall {wall_ms:.1f}ms")
        if running_ms > wall_ms * (1.0 + tolerance) + 50.0:
            errors.append(
                f"job {job}: run slices sum to {running_ms:.1f}ms,"
                f" far beyond wall {wall_ms:.1f}ms")
    return reconstructed


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("log")
    parser.add_argument("--reconstruct", action="store_true")
    parser.add_argument("--wall-tolerance", type=float, default=0.10)
    args = parser.parse_args()

    errors = []
    events = parse_lines(args.log, errors)
    if not events:
        errors.append("empty event log")
    check_events(events, errors)
    summary = f"{args.log}: {len(events)} events"
    if args.reconstruct and not errors:
        count = reconstruct(events, args.wall_tolerance, errors)
        summary += f", {count} job timelines reconstructed"
    if errors:
        for error in errors:
            print(error, file=sys.stderr)
        return 1
    kinds = {}
    for event in events:
        kinds[event["event"]] = kinds.get(event["event"], 0) + 1
    jobs = len({e["job"] for e in events if "job" in e})
    print(f"{summary}, {jobs} jobs, kinds: "
          + " ".join(f"{k}={v}" for k, v in sorted(kinds.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
