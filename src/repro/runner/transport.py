"""Transport-agnostic worker protocol for multi-process campaigns.

Every multi-process campaign is the same per-fault loop as the serial
harness -- :func:`~repro.runner.harness.simulate_fault_once` -- run by
**worker processes** that the dispatcher (:mod:`repro.runner.dispatch`)
talks to through one interface:

* :class:`Transport` -- ``launch(host, simulator) -> WorkerHandle``.
  Two implementations ship: :class:`LocalTransport` (fork a worker on
  this box; it reuses the parent's in-memory simulator, so ``--workers
  N`` and ``--hosts ... --transport local`` share one good-machine
  simulation) and :class:`CommandTransport` (spawn any user-supplied
  command template with ``{host}`` substituted -- ``ssh {host} repro
  worker --host {host}`` is the canonical shape).
* :class:`WorkerHandle` -- one live worker: line-framed JSON messages
  over a pipe pair, non-blocking receive with a deadline, and EOF
  surfaced as :class:`~repro.errors.TransportError` so a dead host looks
  the same no matter which transport lost it.
* :class:`WorkloadSpec` -- the JSON-serializable description of *what*
  to simulate (circuit, patterns, simulator class + config) that the
  dispatcher ships in the ``init`` message to workers that cannot
  inherit the simulator (``Transport.ships_workload``), and
* :func:`worker_main` -- the worker side of the protocol, mounted as
  the ``repro worker`` CLI subcommand and run in every forked worker.

Protocol (version 1), newline-delimited JSON objects
----------------------------------------------------
::

    parent -> worker   {"type": "init", "protocol": 1, "workload": ... | null,
                        "budget": ... | null, "metrics": bool}
    worker -> parent   {"type": "ready", "protocol": 1, "host": ..., "pid": ...}
    parent -> worker   {"type": "chunk", "lease": N, "indices": [...],
                        "faults": [...]}
    worker -> parent   {"type": "verdict", "lease": N, "record": ...}   (per fault)
    worker -> parent   {"type": "chunk_done", "lease": N, "count": ...,
                        "elapsed_ms": ...}
    parent -> worker   {"type": "shutdown"}
    worker -> parent   {"type": "bye", "chunks": ..., "metrics": ... | null}
    worker -> parent   {"type": "error", "detail": ...}                 (fatal)

Workers stream one ``verdict`` message per fault *before* the chunk's
``chunk_done``, so a worker that dies mid-chunk loses only the faults
it had not yet reported -- the dispatcher re-leases exactly the
remainder.  Fault indices ride in every record, which is what makes
replayed chunks idempotent: the dispatcher journals the first verdict
per index and drops duplicates (see ``LeaseBook``).

The worker's stdout **is** the protocol channel of a ``repro worker``
process; nothing else in the package may write to it (the repo lint
bans ``print`` outright, which is what makes mounting the worker inside
the normal CLI safe).
"""

from __future__ import annotations

import dataclasses
import json
import os
import select
import shlex
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import IO, Any, Dict, List, Optional, Sequence

from repro.circuit.bench import parse_bench, write_bench
from repro.circuit.netlist import Circuit
from repro.circuits.registry import build_circuit
from repro.errors import TransportError
from repro.mot.baseline import BaselineConfig, BaselineSimulator
from repro.mot.simulator import MotConfig, ProposedSimulator
from repro.mot.unrestricted import UnrestrictedConfig, UnrestrictedSimulator
from repro.obs import get_tracer, install_worker_metrics, set_tracer
from repro.obs.metrics import get_metrics
from repro.runner.budget import FaultBudget
from repro.chaos.runtime import (
    CHAOS_EXIT_CODE,
    chaos_chunk,
    chaos_chunk_done,
    chaos_fault,
    chaos_worker_ready,
    forget_plan,
)
from repro.runner.harness import probe_meter_support, simulate_fault_once
from repro.runner.journal import fault_from_payload, verdict_to_record

__all__ = [
    "PROTOCOL_VERSION",
    "WorkloadSpec",
    "Transport",
    "LocalTransport",
    "CommandTransport",
    "WorkerHandle",
    "make_transport",
    "wait_for_output",
    "worker_main",
]

PROTOCOL_VERSION = 1

#: Simulator classes a workload may name, with their config dataclass.
_SIMULATORS = {
    "ProposedSimulator": (ProposedSimulator, MotConfig),
    "BaselineSimulator": (BaselineSimulator, BaselineConfig),
    "UnrestrictedSimulator": (UnrestrictedSimulator, UnrestrictedConfig),
}


# ----------------------------------------------------------------------
# Config (de)serialization
# ----------------------------------------------------------------------
def _known_fields(cls: type, fields: Dict[str, Any]) -> Dict[str, Any]:
    """Drop keys a (possibly older) worker's dataclass does not know."""
    known = {f.name for f in dataclasses.fields(cls)}
    return {k: v for k, v in fields.items() if k in known}


def _budget_from_fields(fields: Any) -> Optional[FaultBudget]:
    if not isinstance(fields, dict):
        return None
    budget = FaultBudget(**_known_fields(FaultBudget, fields))
    return budget if budget.bounded else None


def _config_from_fields(simulator_kind: str, fields: Dict[str, Any]) -> Any:
    """Rebuild the simulator config dataclass from its ``asdict`` form."""
    _, config_cls = _SIMULATORS[simulator_kind]
    kwargs = _known_fields(config_cls, fields)
    if "budget" in kwargs:
        kwargs["budget"] = _budget_from_fields(kwargs["budget"])
    if simulator_kind == "UnrestrictedSimulator":
        restricted = kwargs.get("restricted")
        if isinstance(restricted, dict):
            inner = _known_fields(MotConfig, restricted)
            if "budget" in inner:
                inner["budget"] = _budget_from_fields(inner["budget"])
            kwargs["restricted"] = MotConfig(**inner)
    return config_cls(**kwargs)


# ----------------------------------------------------------------------
# Workload description
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadSpec:
    """Everything a worker needs to rebuild the parent's simulator.

    The circuit ships either by registered name (``circuit_kind ==
    "registered"``: the worker calls
    :func:`~repro.circuits.registry.build_circuit`) or as ``.bench``
    text (``"bench"``: the worker parses ``circuit_text``).  Fault
    *lists* never ship here -- chunks carry explicit fault payloads
    with global indices, so workload and work assignment stay
    independent.
    """

    circuit_kind: str
    circuit_name: str
    circuit_text: Optional[str]
    patterns: List[List[int]]
    simulator_kind: str
    simulator_config: Dict[str, Any]

    # ------------------------------------------------------------- build
    @classmethod
    def from_simulator(cls, simulator: Any) -> "WorkloadSpec":
        """Describe *simulator* so a worker in another process image
        (a :class:`CommandTransport` host) can rebuild it.

        Prefers shipping the registered circuit name (self-verifying:
        both sides build from the same registry).  Falls back to
        ``.bench`` text, but only after proving locally that the text
        reparses to the *identical* line numbering -- fault payloads
        reference lines by id, so a renumbering round-trip would
        silently mis-target every fault on the worker.
        """
        kind = type(simulator).__name__
        if kind not in _SIMULATORS:
            raise ValueError(
                f"cannot ship simulator {kind!r}: not one of "
                f"{sorted(_SIMULATORS)}"
            )
        config = simulator.config
        config_fields = (
            dataclasses.asdict(config)
            if dataclasses.is_dataclass(config)
            else {}
        )
        circuit = simulator.circuit
        circuit_kind, circuit_text = cls._circuit_source(circuit)
        return cls(
            circuit_kind=circuit_kind,
            circuit_name=circuit.name,
            circuit_text=circuit_text,
            patterns=[list(p) for p in simulator.patterns],
            simulator_kind=kind,
            simulator_config=config_fields,
        )

    @staticmethod
    def _circuit_source(circuit: Circuit):
        try:
            rebuilt = build_circuit(circuit.name)
        except Exception:
            rebuilt = None
        if rebuilt is not None and rebuilt.line_names == circuit.line_names:
            return "registered", None
        text = write_bench(circuit)
        reparsed = parse_bench(text, circuit.name)
        if reparsed.line_names != circuit.line_names:
            raise ValueError(
                f"circuit {circuit.name!r} does not survive a .bench "
                f"round-trip with stable line ids; cannot ship it to "
                f"remote workers"
            )
        return "bench", text

    def build_simulator(self) -> Any:
        """Rebuild the simulator on the worker side."""
        if self.circuit_kind == "registered":
            circuit = build_circuit(self.circuit_name)
        elif self.circuit_kind == "bench":
            circuit = parse_bench(self.circuit_text or "", self.circuit_name)
        else:
            raise ValueError(f"unknown circuit_kind {self.circuit_kind!r}")
        simulator_cls, _ = _SIMULATORS[self.simulator_kind]
        config = _config_from_fields(self.simulator_kind,
                                     self.simulator_config)
        return simulator_cls(circuit, self.patterns, config=config)

    # ----------------------------------------------------------- payload
    def to_payload(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "WorkloadSpec":
        if payload.get("simulator_kind") not in _SIMULATORS:
            raise ValueError(
                f"unknown simulator_kind "
                f"{payload.get('simulator_kind')!r}"
            )
        return cls(
            circuit_kind=payload["circuit_kind"],
            circuit_name=payload["circuit_name"],
            circuit_text=payload.get("circuit_text"),
            patterns=[list(p) for p in payload["patterns"]],
            simulator_kind=payload["simulator_kind"],
            simulator_config=dict(payload.get("simulator_config") or {}),
        )


# ----------------------------------------------------------------------
# Parent side: worker handles and transports
# ----------------------------------------------------------------------
class WorkerHandle:
    """One live worker process, speaking line-framed JSON.

    *process* is a :class:`subprocess.Popen` (or the same surface --
    ``stdin``/``stdout`` binary streams, ``poll``/``wait``/``kill``).
    ``recv`` never blocks past its deadline and raises
    :class:`TransportError` when the worker's stdout reaches EOF (the
    transport-agnostic signature of a dead host); a torn final line --
    the worker was killed mid-``write`` -- is dropped, mirroring the
    journal's torn-tail tolerance.
    """

    def __init__(self, host: str, process: Any) -> None:
        self.host = host
        self.process = process
        self._buffer = b""
        self._pending: List[bytes] = []
        self._eof = False

    # ---------------------------------------------------------- send
    def send(self, message: Dict[str, Any]) -> None:
        data = (json.dumps(message, sort_keys=True) + "\n").encode("utf-8")
        try:
            self.process.stdin.write(data)
            self.process.stdin.flush()
        except (OSError, ValueError) as exc:
            raise TransportError(
                self.host, f"cannot write to worker: {exc}"
            ) from None

    # ---------------------------------------------------------- recv
    def recv(self, timeout: float = 0.0) -> Optional[Dict[str, Any]]:
        """Next message, or ``None`` when *timeout* elapses first."""
        deadline = time.monotonic() + max(0.0, timeout)
        while True:
            if self._pending:
                return self._decode(self._pending.pop(0))
            if self._eof:
                code = self.process.poll()
                raise TransportError(
                    self.host,
                    f"worker closed its protocol stream"
                    f" (exit code {code})",
                )
            remaining = deadline - time.monotonic()
            got_data = self._fill(max(0.0, remaining))
            if not got_data and remaining <= 0:
                return None

    def _fill(self, timeout: float) -> bool:
        """Pull available bytes from the worker; True if any arrived."""
        stream = self.process.stdout
        try:
            ready, _, _ = select.select([stream], [], [], timeout)
        except (OSError, ValueError):
            self._eof = True
            return True
        if not ready:
            return False
        try:
            data = os.read(stream.fileno(), 1 << 16)
        except OSError:
            data = b""
        if not data:
            self._eof = True  # torn partial tail in the buffer is dropped
            return True
        self._buffer += data
        *lines, self._buffer = self._buffer.split(b"\n")
        self._pending.extend(line for line in lines if line.strip())
        return True

    def _decode(self, line: bytes) -> Dict[str, Any]:
        try:
            parsed = json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise TransportError(
                self.host,
                f"malformed protocol line: {line[:120]!r}",
            ) from None
        if not isinstance(parsed, dict):
            raise TransportError(
                self.host, f"protocol line is not an object: {line[:120]!r}"
            )
        return parsed

    # --------------------------------------------------------- control
    def alive(self) -> bool:
        return self.process.poll() is None

    def close(self, timeout: float = 5.0) -> Optional[int]:
        """Tear the worker down (idempotent); returns its exit code.

        Closing the pipes lets a healthy worker exit on EOF; one still
        running after *timeout* seconds (``0`` = at once) is killed.
        """
        for stream in (self.process.stdin, self.process.stdout):
            try:
                if stream is not None:
                    stream.close()
            except OSError:
                pass
        try:
            return self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            try:
                return self.process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover
                return None


def wait_for_output(handles: Sequence[Any], timeout: float) -> None:
    """Block until a worker in *handles* has protocol bytes to read (or
    has exited), or *timeout* seconds pass.

    The dispatcher's idle wait: it wakes on the next verdict instead of
    sleeping a fixed interval.  Handles without a process (test fakes)
    just sleep.
    """
    streams = [
        handle.process.stdout
        for handle in handles
        if getattr(handle, "process", None) is not None
    ]
    if not streams:
        time.sleep(timeout)
        return
    try:
        select.select(streams, [], [], timeout)
    except (OSError, ValueError):  # a stream closed under us: recv reports it
        pass


#: Default bound on worker startup: spawn to ``ready`` (seconds).
DEFAULT_HANDSHAKE_TIMEOUT = 60.0


class Transport:
    """Launch workers on (pseudo-)hosts; the dispatcher's only view.

    ``handshake_timeout`` bounds worker initialization: a worker that
    has not sent ``ready`` within this many seconds of its spawn is
    treated as dead by the dispatcher (which retries the launch once
    with backoff before striking the host) -- a worker that dies or
    hangs before speaking must never leave dispatch polling forever.

    ``ships_workload`` tells the dispatcher whether a launched worker
    needs the :class:`WorkloadSpec` in its ``init`` message; a forked
    worker already holds the parent's simulator.
    """

    kind = "abstract"
    handshake_timeout = DEFAULT_HANDSHAKE_TIMEOUT
    ships_workload = True

    def launch(self, host: str, simulator: Any) -> WorkerHandle:
        """Start one worker for *host* serving *simulator*'s campaign."""
        raise NotImplementedError


class _ForkedProcess:
    """The :class:`subprocess.Popen` surface :class:`WorkerHandle` uses,
    for a child made by :func:`os.fork`."""

    def __init__(self, pid: int, stdin: IO[bytes], stdout: IO[bytes]) -> None:
        self.pid = pid
        self.stdin = stdin
        self.stdout = stdout
        self.returncode: Optional[int] = None

    def poll(self) -> Optional[int]:
        if self.returncode is None:
            try:
                pid, status = os.waitpid(self.pid, os.WNOHANG)
            except ChildProcessError:  # pragma: no cover - reaped elsewhere
                self.returncode = 255  # gone; its exit status is lost
                return self.returncode
            if pid:
                self.returncode = os.waitstatus_to_exitcode(status)
        return self.returncode

    def wait(self, timeout: Optional[float] = None) -> int:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            code = self.poll()
            if code is not None:
                return code
            if deadline is not None and time.monotonic() >= deadline:
                raise subprocess.TimeoutExpired(f"worker {self.pid}", timeout)
            time.sleep(0.005)

    def kill(self) -> None:
        if self.poll() is None:
            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:  # pragma: no cover - just exited
                pass


def _serve_forked(host: str, simulator: Any, read_fd: int,
                  write_fd: int) -> int:
    """The body of a forked worker: the protocol over its pipe pair.

    Interruption belongs to the parent (it kills its workers), so
    SIGINT is ignored.  The parent's chaos plan and tracer are not
    reused: the worker compiles its own plan from the environment, as
    a ``repro worker`` process would, and traces to ``<trace>.<host>``
    instead of writing through the inherited file handle.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    forget_plan()
    tracer = get_tracer()
    if tracer.enabled:
        set_tracer(tracer.for_worker(host))
    stdin = os.fdopen(read_fd, "r", encoding="utf-8")
    stdout = os.fdopen(write_fd, "w", encoding="utf-8")
    return worker_main(host, stdin, stdout, simulator=simulator)


class LocalTransport(Transport):
    """Forked worker processes on this machine.

    Each worker is a :func:`os.fork` of the dispatcher: it inherits the
    simulator -- circuit, patterns and the one good-machine simulation
    -- instead of rebuilding it, so nothing ships but fault chunks and
    any circuit works, including ones whose ``.bench`` round-trip
    renumbers lines.  It speaks the same protocol as a remote worker
    over a pipe pair.
    """

    kind = "local"
    ships_workload = False

    def __init__(
        self, handshake_timeout: float = DEFAULT_HANDSHAKE_TIMEOUT
    ) -> None:
        self.handshake_timeout = float(handshake_timeout)
        self._children: List[_ForkedProcess] = []

    def launch(self, host: str, simulator: Any) -> WorkerHandle:
        # The parent's ends of earlier workers' pipes must not stay open
        # in the new child, or those workers never see EOF on stdin.
        self._children = [c for c in self._children if not c.stdout.closed]
        inherited = [
            stream.fileno()
            for child in self._children
            for stream in (child.stdin, child.stdout)
        ]
        to_worker = os.pipe()
        from_worker = os.pipe()
        for stream in (sys.stdout, sys.stderr):
            try:  # or the child re-emits whatever the parent buffered
                stream.flush()
            except (AttributeError, OSError, ValueError):
                pass
        try:
            pid = os.fork()
        except OSError as exc:
            for fd in to_worker + from_worker:
                os.close(fd)
            raise TransportError(host, f"cannot fork: {exc}") from None
        if pid == 0:  # pragma: no cover - runs in the child
            code = 1
            try:
                for fd in inherited + [to_worker[1], from_worker[0]]:
                    os.close(fd)
                code = _serve_forked(
                    host, simulator, to_worker[0], from_worker[1]
                )
            finally:
                os._exit(code)
        os.close(to_worker[0])
        os.close(from_worker[1])
        child = _ForkedProcess(
            pid, os.fdopen(to_worker[1], "wb"), os.fdopen(from_worker[0], "rb")
        )
        self._children.append(child)
        return WorkerHandle(host, child)


class CommandTransport(Transport):
    """Workers launched via an arbitrary command template.

    The template must contain ``{host}``; it is substituted (shell-
    quoted) and the result split with :mod:`shlex`.  Anything that can
    exec a command and forward stdin/stdout works unmodified::

        ssh {host} repro worker --host {host}
        docker exec -i {host} repro worker --host {host}
        env PYTHONPATH=src python -m repro worker --host {host}
    """

    kind = "command"

    def __init__(
        self,
        template: str,
        handshake_timeout: float = DEFAULT_HANDSHAKE_TIMEOUT,
    ) -> None:
        if "{host}" not in template:
            raise ValueError(
                "command template must contain a {host} placeholder"
            )
        self.template = template
        self.handshake_timeout = float(handshake_timeout)

    def launch(self, host: str, simulator: Any) -> WorkerHandle:
        command = self.template.replace("{host}", shlex.quote(host))
        argv = shlex.split(command)
        if not argv:
            raise TransportError(host, "command template expands to nothing")
        try:
            process = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=None,  # workers inherit stderr for tracebacks
            )
        except OSError as exc:
            raise TransportError(
                host, f"cannot spawn {argv[0]!r}: {exc}"
            ) from None
        return WorkerHandle(host, process)


def make_transport(
    kind: str,
    command_template: Optional[str] = None,
    handshake_timeout: float = DEFAULT_HANDSHAKE_TIMEOUT,
) -> Transport:
    """Build the transport the CLI's ``--transport`` flag names."""
    if kind == "local":
        return LocalTransport(handshake_timeout=handshake_timeout)
    if kind == "command":
        if not command_template:
            raise ValueError(
                "--transport command requires --command-template"
            )
        return CommandTransport(
            command_template, handshake_timeout=handshake_timeout
        )
    raise ValueError(f"unknown transport {kind!r}")


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _read_message(stream: Any) -> Optional[Dict[str, Any]]:
    """Next parent message from *stream*; None on EOF; raises ValueError
    on a malformed line (the parent is speaking, so torn lines are a
    protocol violation here, not salvageable damage)."""
    while True:
        line = stream.readline()
        if not line:
            return None
        if isinstance(line, bytes):
            line = line.decode("utf-8")
        if not line.strip():
            continue
        parsed = json.loads(line)
        if not isinstance(parsed, dict):
            raise ValueError(f"protocol line is not an object: {line[:120]!r}")
        return parsed


def worker_main(
    host: str,
    stdin: Any = None,
    stdout: Any = None,
    simulator: Any = None,
) -> int:
    """Serve chunks over the worker protocol until shutdown.

    Mounted as ``repro worker --host <name>``, where the simulator is
    rebuilt from the ``init`` message's workload; a forked worker passes
    the *simulator* it inherited instead.  Returns the process
    exit code: 0 after a clean ``shutdown``/``bye`` exchange, 1 on any
    protocol or workload failure (reported to the parent as an
    ``error`` message when the pipe still works), 130 on SIGINT.
    """
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout

    def emit(message: Dict[str, Any]) -> None:
        stdout.write(json.dumps(message, sort_keys=True) + "\n")
        stdout.flush()

    def fail(detail: str) -> int:
        try:
            emit({"type": "error", "host": host, "detail": detail})
        except (OSError, ValueError):  # parent already gone
            pass
        return 1

    try:
        try:
            init = _read_message(stdin)
        except ValueError as exc:
            return fail(f"malformed init: {exc}")
        if init is None:
            return 1  # parent vanished before speaking
        if init.get("type") != "init":
            return fail(f"expected init, got {init.get('type')!r}")
        if init.get("protocol") != PROTOCOL_VERSION:
            return fail(
                f"protocol mismatch: parent speaks "
                f"{init.get('protocol')!r}, worker speaks "
                f"{PROTOCOL_VERSION}"
            )
        if init.get("metrics"):
            install_worker_metrics()
        if simulator is None:
            try:
                workload = WorkloadSpec.from_payload(init["workload"])
                simulator = workload.build_simulator()
            except Exception as exc:
                return fail(
                    f"cannot build workload: {type(exc).__name__}: {exc}"
                )
        budget = _budget_from_fields(init.get("budget"))
        supports_meter = probe_meter_support(simulator)
        ready_flag = chaos_worker_ready(host)
        emit({
            "type": "ready",
            "protocol": PROTOCOL_VERSION,
            "host": host,
            "pid": os.getpid(),
        })
        if ready_flag == "kill_after":
            os._exit(CHAOS_EXIT_CODE)

        chunks_done = 0
        while True:
            try:
                message = _read_message(stdin)
            except ValueError as exc:
                return fail(f"malformed message: {exc}")
            if message is None:
                return 1  # parent vanished mid-campaign
            mtype = message.get("type")
            if mtype == "shutdown":
                payload = None
                metrics = get_metrics()
                if metrics.enabled:
                    snapshot = metrics.snapshot()
                    if not snapshot.empty:
                        payload = snapshot.to_payload()
                emit({
                    "type": "bye",
                    "host": host,
                    "chunks": chunks_done,
                    "metrics": payload,
                })
                return 0
            if mtype != "chunk":
                return fail(f"unexpected message type {mtype!r}")
            chaos_chunk(host)
            lease = message.get("lease")
            indices = message.get("indices") or []
            fault_payloads = message.get("faults") or []
            if len(indices) != len(fault_payloads):
                return fail(
                    f"chunk {lease!r}: {len(indices)} indices for "
                    f"{len(fault_payloads)} faults"
                )
            started = time.perf_counter()
            for index, payload in zip(indices, fault_payloads):
                index = int(index)
                fault = fault_from_payload(payload)
                fault_flag = chaos_fault(index, host)
                verdict = simulate_fault_once(
                    simulator,
                    fault,
                    budget=budget,
                    supports_meter=supports_meter,
                    count_verdict=False,
                )
                message = {
                    "type": "verdict",
                    "lease": lease,
                    "host": host,
                    "record": verdict_to_record(index, verdict),
                }
                if fault_flag == "kill_mid_write":
                    # Die midway through the frame: the parent sees a
                    # torn final line, drops it, and re-leases exactly
                    # this fault.
                    frame = json.dumps(message, sort_keys=True) + "\n"
                    stdout.write(frame[: max(1, len(frame) // 2)])
                    stdout.flush()
                    os._exit(CHAOS_EXIT_CODE)
                emit(message)
            chunks_done += 1
            metrics = get_metrics()
            if metrics.enabled:
                metrics.counter("worker.chunks")
            emit({
                "type": "chunk_done",
                "lease": lease,
                "host": host,
                "count": len(indices),
                "elapsed_ms": (time.perf_counter() - started) * 1000.0,
            })
            chaos_chunk_done(host)
    except KeyboardInterrupt:
        return 130
    except Exception as exc:  # pragma: no cover - last-resort report
        return fail(f"worker crashed: {type(exc).__name__}: {exc}")
