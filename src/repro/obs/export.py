"""Lower a parsed trace to Chrome/Perfetto trace-event JSON.

The trace-event format (the JSON flavour ``ui.perfetto.dev`` and
``chrome://tracing`` both open) is a flat ``traceEvents`` list:

* every span becomes one complete event (``ph: "X"``) with
  microsecond ``ts``/``dur`` on its process's track (``pid``; ``tid``
  mirrors ``pid`` because our workers are single-threaded processes);
* final run counters from the metrics snapshot become one counter
  event each at the end of the trace;
* per-pid ``process_name`` metadata events (``ph: "M"``) label tracks.

Span starts were already rebased onto one clock at absorb time, so
multi-pid traces render as aligned tracks with no further work here.
:func:`check_perfetto` is the schema check CI runs on exported files:
every event must carry a valid ``ph``, numeric ``ts``, and integer
``pid``/``tid``.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.obs.trace_io import TraceData

__all__ = ["check_perfetto", "export_perfetto", "to_perfetto"]

_ALLOWED_PH = {"X", "C", "M"}


def _jsonable(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def to_perfetto(data: TraceData) -> Dict[str, object]:
    """Build the trace-event JSON object for one parsed trace."""
    events: List[Dict[str, object]] = []
    pids = set()

    def visit(rec) -> None:
        pids.add(rec.pid)
        events.append(
            {
                "name": rec.name,
                "cat": "span",
                "ph": "X",
                "ts": rec.start * 1e6,
                "dur": rec.duration * 1e6,
                "pid": rec.pid,
                "tid": rec.pid,
                "args": {k: _jsonable(v) for k, v in rec.attrs.items()},
            }
        )
        for child in rec.children:
            visit(child)

    for root in data.spans:
        visit(root)

    # Final run counters as one terminal counter event each, placed at
    # the end of the span timeline so they read as run totals.
    if data.metrics.counters:
        end_ts = max(
            [e["ts"] + e.get("dur", 0.0) for e in events], default=0.0
        )
        own_pid = data.spans[0].pid if data.spans else 0
        pids.add(own_pid)
        for name, value in sorted(data.metrics.counters.items()):
            events.append(
                {
                    "name": name,
                    "cat": "counter",
                    "ph": "C",
                    "ts": end_ts,
                    "pid": own_pid,
                    "tid": own_pid,
                    "args": {"value": value},
                }
            )

    command = str(data.meta.get("command", "") or "repro")
    meta_events: List[Dict[str, object]] = []
    main_pid = data.spans[0].pid if data.spans else None
    for pid in sorted(pids):
        label = command if pid == main_pid else f"worker-{pid}"
        meta_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0.0,
                "pid": pid,
                "tid": pid,
                "args": {"name": label},
            }
        )

    return {
        "traceEvents": meta_events + events,
        "displayTimeUnit": "ms",
    }


def check_perfetto(obj: Dict[str, object]) -> List[str]:
    """Validate a trace-event object; returns a list of problems."""
    problems: List[str] = []
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in _ALLOWED_PH:
            problems.append(f"{where}: bad ph {ph!r}")
        if not isinstance(event.get("ts"), (int, float)):
            problems.append(f"{where}: non-numeric ts")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                problems.append(f"{where}: non-integer {key}")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: X event needs dur >= 0")
        if ph == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not args:
                problems.append(f"{where}: C event needs args")
            elif not all(
                isinstance(v, (int, float)) for v in args.values()
            ):
                problems.append(f"{where}: C args must be numeric")
    return problems


def export_perfetto(
    data: TraceData, path: str, *, validate: bool = True
) -> int:
    """Write ``data`` as trace-event JSON; returns the event count."""
    obj = to_perfetto(data)
    if validate:
        problems = check_perfetto(obj)
        if problems:
            raise ValueError(
                "perfetto export failed validation: "
                + "; ".join(problems[:5])
            )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    events = obj["traceEvents"]
    assert isinstance(events, list)
    return len(events)
