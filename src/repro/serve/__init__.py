"""Online serving layer: ``repro serve`` behind a typed overload contract.

The batch engine answers "how fast can we clean a file"; this package
answers "what happens when requests arrive faster than we can clean
them".  Every request resolves to exactly one of:

- **completed** — bit-identical to the offline matcher's answer;
- **degraded** — a best-effort answer with a stated reason (deadline,
  storage fault fallback, or the overload ladder's cheaper stage);
- **shed** — a typed refusal (queue full, displaced, deadline expired
  in queue, overload, draining, drain budget, loading) that never
  touched the engine;
- **error** — a typed failure (malformed request or an unabsorbed
  database error).

Modules: :mod:`~repro.serve.protocol` (wire format + shed vocabulary),
:mod:`~repro.serve.admission` (bounded priority queue),
:mod:`~repro.serve.lifecycle` (readiness, worker health, degradation
ladder), :mod:`~repro.serve.server` (the threaded server), and
:mod:`~repro.serve.client` (reference client).
"""

from repro.serve.admission import AdmissionQueue, ConnectionGate, WorkItem
from repro.serve.client import ClientTimeoutError, ServeClient
from repro.serve.lifecycle import (
    DegradationLadder,
    Lifecycle,
    LifecycleError,
    WorkerHealth,
)
from repro.serve.protocol import (
    PRIORITY_BULK,
    PRIORITY_INTERACTIVE,
    FrameError,
    FrameReader,
    FrameTooLargeError,
    PipelineOverflowError,
    ProtocolError,
    Request,
    ServeError,
    SheddedError,
    SlowFrameError,
    decode_request,
    encode_line,
)
from repro.serve.server import (
    MatchServer,
    ServeConfig,
    ServeStats,
)

__all__ = [
    "AdmissionQueue",
    "ClientTimeoutError",
    "ConnectionGate",
    "DegradationLadder",
    "decode_request",
    "encode_line",
    "FrameError",
    "FrameReader",
    "FrameTooLargeError",
    "Lifecycle",
    "LifecycleError",
    "MatchServer",
    "PipelineOverflowError",
    "PRIORITY_BULK",
    "PRIORITY_INTERACTIVE",
    "ProtocolError",
    "Request",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServeStats",
    "SheddedError",
    "SlowFrameError",
    "WorkItem",
    "WorkerHealth",
]
