"""``repro serve``: the long-running streaming verification service.

A :class:`VerdictServer` consumes the JSONL event-log wire format
(:mod:`repro.sim.event_log`) line by line — from a file another process
is appending to, from a completed log, or from stdin — and feeds every
event through the same one-pass validator the stress harness uses
online (:class:`~repro.rt.stress.StreamValidator`: incremental
linearizability plus, where the syntactic oracle applies, windowed
audit exactness).  The linearizability checker's memory stays bounded
by the stream's overlap width; the audit oracle keeps every distinct
pair read, so its memory grows with the run's fresh values.

The log's ``hello`` line carries enough metadata for a stress-produced
log to rebuild its exact validator (object kind, roster, seed,
substrates) through :func:`~repro.rt.stress.validator_from_meta`, the
constructor the stress harness itself uses; ``--spec NAME`` instead
checks any named fastlin spec (linearizability only).  A stream that
ends without its ``end`` marker — producer crash, disconnect,
truncation — yields a PARTIAL verdict carrying the last verified
frontier, never a bogus OK.

Exit codes follow the repo convention, through the stress harness's
:func:`~repro.rt.stress.recorded_verdict`: 0 verified clean, 1 a
violation was proven (linearizability or audit exactness), 2
partial/undecided or a usage error.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional

from repro.analysis.fastlin import DEFAULT_MAX_NODES, spec_from_name
from repro.analysis.streamlin import DEFAULT_WINDOW, LIN_PARTIAL
from repro.rt.stress import (
    PASS,
    StreamValidator,
    audit_note,
    recorded_verdict,
    validator_from_meta,
    verdict_lines,
)
from repro.sim.event_log import parse_line


@dataclass
class ServeOutcome:
    """Final report of one served stream."""

    status: str
    lin_ok: Optional[bool]
    audit_ok: Optional[bool]
    clean_end: bool
    meta: Dict[str, Any] = field(default_factory=dict)
    stream: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return recorded_verdict(self.status, self.audit_ok) == PASS

    @property
    def exit_code(self) -> int:
        """0 verified clean, 1 violation proven, 2 partial/undecided."""
        from repro.engine.aggregate import EXIT_CODES

        return EXIT_CODES[recorded_verdict(self.status, self.audit_ok)]

    def render(self) -> str:
        lines = [
            f"== serve: {self.meta.get('object', self.meta.get('spec', '?'))}"
            f" ({'clean end' if self.clean_end else 'TRUNCATED stream'}) ==",
            f"  events        : {self.stream.get('events', 0)}"
            f" ({self.stream.get('ops_completed', 0)} ops completed)",
            f"  frontier      : verified through event "
            f"{self.stream.get('frontier_index')}",
            f"  retired       : {self.stream.get('ops_retired')} ops "
            f"(peak resident {self.stream.get('peak_resident_ops')})",
        ]
        lines += verdict_lines(
            self.status, self.audit_ok, audit_note(self.stream),
            self.stream.get("budget"),
        )
        return "\n".join(lines)


class VerdictServer:
    """Feed protocol lines, get a rolling verdict.

    The validator is built lazily from the stream's ``hello`` metadata
    (stress logs) unless a ``spec`` name pins it up front.  ``feed``
    returns True while the stream is still open and False once the
    ``end`` marker arrived.
    """

    def __init__(
        self,
        *,
        spec: Optional[str] = None,
        spec_params: Optional[Dict[str, Any]] = None,
        max_nodes: int = DEFAULT_MAX_NODES,
        window: Optional[int] = None,
        progress_every: int = 0,
        progress: Any = None,
    ) -> None:
        self.max_nodes = max_nodes
        self.window = window
        self.meta: Dict[str, Any] = {}
        self.events = 0
        self.clean_end = False
        self.declared_events: Optional[int] = None
        self.progress_every = progress_every
        self.progress_cb = progress
        self.validator: Optional[StreamValidator] = None
        if spec is not None:
            # Linearizability only: the audit oracle needs the concrete
            # auditable object, and a bare spec has none.
            self.meta["spec"] = spec
            self.validator = StreamValidator(
                spec_from_name(spec, **(spec_params or {})),
                max_nodes=max_nodes,
                window=window if window is not None else DEFAULT_WINDOW,
            )

    def _ensure_validator(self) -> StreamValidator:
        if self.validator is None:
            self.validator = validator_from_meta(
                self.meta, max_nodes=self.max_nodes, window=self.window
            )
        return self.validator

    def feed_line(self, line: str) -> bool:
        """Consume one protocol line; False once the stream ended."""
        line = line.strip()
        if not line:
            return True
        kind, value = parse_line(line)
        if kind == "hello":
            self.meta.update(value)
            return True
        if kind == "end":
            self.clean_end = True
            self.declared_events = value
            return False
        self.events += 1
        self._ensure_validator().feed(value)
        if (
            self.progress_every
            and self.progress_cb is not None
            and self.events % self.progress_every == 0
        ):
            self.progress_cb(self.snapshot())
        return True

    def snapshot(self) -> Dict[str, Any]:
        """Rolling progress (frontier, residency) without finishing."""
        if self.validator is None:
            return {"events": self.events}
        payload = self.validator.checker.progress().to_payload()
        payload["events_seen"] = self.events
        return payload

    def outcome(self) -> ServeOutcome:
        """Final verdict; PARTIAL when the end marker never arrived."""
        if self.validator is None:
            # Nothing streamed (or truncated before the hello line).
            return ServeOutcome(
                status=LIN_PARTIAL, lin_ok=None, audit_ok=None,
                clean_end=self.clean_end, meta=self.meta,
                stream={"events": self.events},
            )
        lin, audit, status, stream = self.validator.verdict(
            finished=self.clean_end
        )
        return ServeOutcome(
            status=status, lin_ok=lin, audit_ok=audit,
            clean_end=self.clean_end, meta=self.meta, stream=stream,
        )


def serve_lines(server: VerdictServer, lines: Iterable[str]) -> ServeOutcome:
    """Drain an in-memory or piped line stream into ``server``."""
    for line in lines:
        if not server.feed_line(line):
            break
    return server.outcome()


def serve_file(
    server: VerdictServer,
    path: str,
    *,
    follow: bool = False,
    poll: float = 0.2,
    idle_timeout: Optional[float] = None,
) -> ServeOutcome:
    """Serve a log file, optionally following it as it grows.

    ``follow=True`` keeps polling at EOF until the ``end`` marker
    arrives or no new bytes show up for ``idle_timeout`` seconds (then
    the stream counts as truncated: PARTIAL).  Torn trailing lines (a
    producer killed mid-write) are held back until a newline completes
    them — and count as truncation if it never does.
    """
    last_data = time.monotonic()
    buffer = ""
    with open(path, "r", encoding="utf-8") as handle:
        while True:
            chunk = handle.readline()
            if chunk:
                last_data = time.monotonic()
                if not chunk.endswith("\n"):
                    buffer += chunk  # torn line: wait for the rest
                    continue
                line, buffer = buffer + chunk, ""
                try:
                    more = server.feed_line(line)
                except (ValueError, KeyError):
                    break  # corrupt tail: truncation semantics
                if not more:
                    break
                continue
            if not follow:
                break
            if (
                idle_timeout is not None
                and time.monotonic() - last_data > idle_timeout
            ):
                break
            time.sleep(poll)
    return server.outcome()
