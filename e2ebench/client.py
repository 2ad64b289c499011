"""Closed-loop socket client: one process, one selector, one socket per lane.

Each lane keeps at most ``window`` requests in flight and sends its next
line only when an answer frees a slot, the way NDJSON pipelines, HTTP
one-shots and windowed stream sessions behave.  While the loop runs it
only splits answers at line ends (NDJSON) or waits for the peer's close
(HTTP); decoding happens after timing, in the output check.
"""

from __future__ import annotations

import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Tuple

from plan import Lane

#: Seconds without any progress after which outstanding requests count
#: as timed out.
TIMEOUT_S = 30.0

_RECV = 1 << 18


@dataclass
class Sample:
    """One sent request and, once answered, its response bytes."""

    lane: int
    step: int
    cycle: int
    t_send: float
    t_recv: Optional[float] = None
    response: Optional[bytes] = None


@dataclass
class LaneRun:
    """What one lane sent and received."""

    samples: List[Sample] = field(default_factory=list)
    bytes_out: int = 0
    bytes_in: int = 0


class _State:
    def __init__(self, index: int, lane: Lane, host: str, port: int) -> None:
        self.index = index
        self.lane = lane
        self.addr = (host, port)
        self.run = LaneRun()
        self.next_step = 0
        self.cycle = 0
        self.inflight: Deque[Sample] = deque()
        self.stopped = False
        self.last_stop_ok = True
        self.sock: Optional[socket.socket] = None
        self.mask = 0
        self.outbuf = bytearray()
        self.inbuf = bytearray()

    def done(self) -> bool:
        return self.stopped and not self.inflight


class Client:
    """Drives ``lanes`` against ``host:port`` until a deadline.

    ``run(deadline)`` stops each lane at its first stop point at or after
    ``deadline`` (``None``: run every lane to the end of its steps), then
    waits for the answers still owed.
    """

    def __init__(self, host: str, port: int, lanes: List[Lane]) -> None:
        self.states = [_State(i, lane, host, port)
                       for i, lane in enumerate(lanes)]
        self.sel = selectors.DefaultSelector()

    # -- connections -----------------------------------------------------

    def _connect(self, st: _State) -> None:
        sock = socket.create_connection(st.addr, timeout=TIMEOUT_S)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        st.sock = sock
        st.mask = selectors.EVENT_READ
        self.sel.register(sock, st.mask, st)

    def _arm(self, st: _State) -> None:
        """Watch for writability only while bytes wait to be sent."""
        if st.sock is None:
            return
        mask = selectors.EVENT_READ
        if st.outbuf:
            mask |= selectors.EVENT_WRITE
        if mask != st.mask:
            self.sel.modify(st.sock, mask, st)
            st.mask = mask

    def _close(self, st: _State) -> None:
        if st.sock is not None:
            self.sel.unregister(st.sock)
            st.sock.close()
            st.sock = None

    # -- sending ---------------------------------------------------------

    def _fill(self, st: _State, deadline: Optional[float]) -> None:
        lane = st.lane
        while not st.stopped and len(st.inflight) < lane.window:
            if deadline is not None and st.last_stop_ok \
                    and time.perf_counter() >= deadline:
                st.stopped = True
                break
            if st.next_step >= len(lane.steps):
                if not lane.cycle:
                    st.stopped = True
                    break
                st.next_step = 0
                st.cycle += 1
            # steps[-1] when a cycle restarts: its barrier holds too.
            if st.inflight and lane.steps[st.next_step - 1].barrier:
                break
            step = lane.steps[st.next_step]
            if lane.protocol == "http" or st.sock is None:
                self._connect(st)  # HTTP lanes: one connection a request
            sample = Sample(st.index, st.next_step, st.cycle,
                            time.perf_counter())
            st.inflight.append(sample)
            st.run.samples.append(sample)
            st.outbuf += step.line
            st.run.bytes_out += len(step.line)
            st.last_stop_ok = step.stop_ok
            st.next_step += 1
            self._send(st)
        if st.done() and st.sock is not None and not st.outbuf:
            self._close(st)
        self._arm(st)

    def _send(self, st: _State) -> None:
        if st.sock is None or not st.outbuf:
            return
        try:
            sent = st.sock.send(st.outbuf)
        except (BlockingIOError, InterruptedError):
            return
        del st.outbuf[:sent]

    # -- receiving -------------------------------------------------------

    def _recv(self, st: _State) -> bool:
        """Read what is there; ``False`` once the peer has closed."""
        assert st.sock is not None
        while True:
            try:
                chunk = st.sock.recv(_RECV)
            except (BlockingIOError, InterruptedError):
                return True
            if not chunk:
                return False
            st.run.bytes_in += len(chunk)
            st.inbuf += chunk
            if st.lane.protocol == "ndjson":
                self._split(st)

    def _split(self, st: _State) -> None:
        now = time.perf_counter()
        start = 0
        buf = st.inbuf
        while True:
            end = buf.find(b"\n", start)
            if end < 0:
                break
            sample = st.inflight.popleft()
            sample.t_recv = now
            sample.response = bytes(buf[start:end])
            start = end + 1
        if start:
            del buf[:start]

    def _http_done(self, st: _State) -> None:
        sample = st.inflight.popleft()
        sample.t_recv = time.perf_counter()
        sample.response = bytes(st.inbuf)
        st.inbuf.clear()
        self._close(st)

    # -- loop ------------------------------------------------------------

    def run(self, deadline: Optional[float]) -> Tuple[List[LaneRun], float]:
        """Run the lanes; returns their records and the time the last
        answer arrived."""
        for st in self.states:
            self._fill(st, deadline)
        last_progress = time.perf_counter()
        t_last = last_progress
        try:
            while not all(st.done() for st in self.states):
                events = self.sel.select(timeout=0.5)
                now = time.perf_counter()
                for key, mask in events:
                    st = key.data
                    if mask & selectors.EVENT_WRITE:
                        self._send(st)
                    if mask & selectors.EVENT_READ and st.sock is not None:
                        before = len(st.inflight)
                        alive = self._recv(st)
                        if not alive:
                            if st.lane.protocol == "http" and st.inflight:
                                self._http_done(st)
                            else:
                                # Peer closed with answers owed: those
                                # requests stay unanswered (failed).
                                self._close(st)
                                st.stopped = True
                                st.inflight.clear()
                        if len(st.inflight) < before:
                            last_progress = t_last = now
                    self._arm(st)
                for st in self.states:
                    if st.sock is None or st.lane.protocol == "ndjson":
                        self._fill(st, deadline)
                if now - last_progress > TIMEOUT_S:
                    break  # what is still owed counts as timed out
        finally:
            for st in self.states:
                self._close(st)
            self.sel.close()
        return [st.run for st in self.states], t_last
