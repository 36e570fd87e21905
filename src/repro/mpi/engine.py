"""MPI engine: drives per-rank generator programs over the Dragonfly network.

Workloads are written as *rank programs*: Python generators that yield MPI
operations.  Exactly two kinds of operations are yielded —

* ``ctx.compute(duration_ns)`` — the rank computes for a fixed time;
* ``ctx.waitall([...])`` / ``ctx.wait(req)`` — the rank blocks until the
  listed non-blocking requests complete.

Everything else (``isend``, ``irecv``, collectives) is a side-effecting call
on the :class:`RankContext` that returns request handles, so communication
and computation overlap exactly as they would under a real MPI library.

Protocols follow the eager/rendezvous split described in the paper's Firefly
layer: messages at or below ``SimulationConfig.eager_threshold_bytes`` are
pushed immediately (eager); larger messages perform an RTS/CTS handshake and
only then move the payload (rendezvous).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Generator, Iterator, List, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.traces.recorder import TraceRecorder
    from repro.workloads.base import Application

from repro.core.events import EventKind
from repro.flow import Network
from repro.network.packet import Message, MessageKind
from repro.mpi import collectives as _collectives
from repro.mpi.message import (
    ANY_SOURCE,
    ANY_TAG,
    Envelope,
    MailBox,
    MpiRequest,
    RecvRequest,
    Rendezvous,
    SendRequest,
)
from repro.stats.appstats import ApplicationRecord, IterationRecord

__all__ = ["ComputeOp", "MpiEngine", "MpiJob", "RankContext", "RankOp", "RankProgram", "WaitOp"]

#: Size (bytes) of RTS/CTS control messages on the wire.
CONTROL_MESSAGE_BYTES = 64

_COMPUTE_DONE = EventKind.COMPUTE_DONE
_DATA = MessageKind.DATA
_RTS = MessageKind.RTS
_CTS = MessageKind.CTS
#: Completes a request as ``_complete(request, time)``.  Calendar events that
#: complete one carry this plain function and a 2-tuple, not a bound method.
_complete = MpiRequest.complete


class ComputeOp:
    """Yielded by a rank program to model computation of a fixed duration."""

    __slots__ = ("duration",)

    def __init__(self, duration: float):
        if duration < 0:
            raise ValueError("compute duration cannot be negative")
        self.duration = float(duration)


class WaitOp:
    """Yielded by a rank program to block until every request completes."""

    __slots__ = ("requests",)

    def __init__(self, requests: Sequence[MpiRequest]):
        self.requests = list(requests)


#: The two operation kinds a rank program may yield.
RankOp = Union[ComputeOp, WaitOp]

#: The generator type every rank program conforms to.
RankProgram = Generator[RankOp, None, None]


class MpiJob:
    """One application instance: a set of ranks mapped onto nodes.

    ``start_time`` is the simulated time (ns) at which the job's rank
    programs begin executing; nodes are reserved from time zero (static
    allocation), the *programs* arrive late — modelling a job submitted
    while other applications are already at steady state.
    """

    def __init__(
        self,
        job_id: int,
        name: str,
        nodes: Sequence[int],
        application: Optional["Application"] = None,
        start_time: float = 0.0,
    ):
        if len(set(nodes)) != len(nodes):
            raise ValueError("a job cannot place two ranks on the same node")
        # isfinite also rejects NaN, which a plain `< 0` check would let
        # through to silently start the job at t=0.
        if not (math.isfinite(start_time) and start_time >= 0):
            raise ValueError(
                f"a job's start_time must be finite and non-negative, got {start_time!r}"
            )
        self.job_id = job_id
        self.name = name
        self.nodes: List[int] = list(nodes)
        self.application = application
        self.start_time = float(start_time)
        self.record = ApplicationRecord(app_id=job_id, name=name, num_ranks=len(nodes))

    @property
    def num_ranks(self) -> int:
        """Number of MPI ranks in this job."""
        return len(self.nodes)

    def node_of(self, rank: int) -> int:
        """Compute node hosting ``rank``."""
        return self.nodes[rank]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MpiJob(id={self.job_id}, name={self.name!r}, ranks={self.num_ranks})"


class RankContext:
    """Per-rank API handed to workload programs, and the rank's execution state.

    The engine drives the rank's generator program through its context.
    While the program waits, the context is the ``waiter`` of every request
    it waits on: each completion counts ``pending`` down, the last resumes it.
    """

    __slots__ = (
        "engine",
        "job",
        "rank",
        "node",
        "_collective_seq",
        "_iteration",
        "_enclosing",
        "generator",
        "block_start",
        "pending",
        "finished",
    )

    def __init__(self, engine: "MpiEngine", job: MpiJob, rank: int):
        self.engine = engine
        self.job = job
        self.rank = rank
        self.node = job.node_of(rank)
        self._collective_seq = 0
        #: The innermost open iteration, and the ones it is nested in
        #: (outermost first; a list only once iterations nest).
        self._iteration: Optional[IterationRecord] = None
        self._enclosing: Optional[List[IterationRecord]] = None
        #: The rank's program, set by the engine when the job starts.
        self.generator: Optional[RankProgram] = None
        self.block_start: Optional[float] = None
        self.pending: int = 0
        self.finished = False

    def __call__(self, request: MpiRequest) -> None:
        self.pending -= 1
        if not self.pending:
            self.engine._resume(self)

    # ----------------------------------------------------------- properties
    @property
    def job_size(self) -> int:
        """Number of ranks in this rank's job."""
        return self.job.num_ranks

    @property
    def now(self) -> float:
        """Current simulated time in ns."""
        return self.engine.sim.now

    # ----------------------------------------------------------- operations
    def compute(self, duration_ns: float) -> ComputeOp:
        """Model ``duration_ns`` of local computation."""
        return ComputeOp(duration_ns)

    def wait(self, request: MpiRequest) -> WaitOp:
        """Block until ``request`` completes."""
        return WaitOp([request])

    def waitall(self, requests: Sequence[MpiRequest]) -> WaitOp:
        """Block until every request in ``requests`` completes."""
        return WaitOp(requests)

    def isend(self, dst_rank: int, size_bytes: int, tag: int = 0) -> SendRequest:
        """Start a non-blocking send of ``size_bytes`` to ``dst_rank``."""
        return self.engine.isend(self.job, self.rank, dst_rank, size_bytes, tag)

    def irecv(self, src_rank: int = ANY_SOURCE, tag: int = ANY_TAG) -> RecvRequest:
        """Post a non-blocking receive from ``src_rank`` (wildcards allowed)."""
        return self.engine.irecv(self.job, self.rank, src_rank, tag)

    def send(self, dst_rank: int, size_bytes: int, tag: int = 0) -> WaitOp:
        """Blocking send (isend + wait), to be yielded by the program."""
        return WaitOp([self.isend(dst_rank, size_bytes, tag)])

    def recv(self, src_rank: int = ANY_SOURCE, tag: int = ANY_TAG) -> WaitOp:
        """Blocking receive (irecv + wait), to be yielded by the program."""
        return WaitOp([self.irecv(src_rank, tag)])

    def sendrecv(self, dst_rank: int, src_rank: int, size_bytes: int, tag: int = 0) -> WaitOp:
        """Simultaneous blocking send and receive (common stencil idiom)."""
        return WaitOp([self.isend(dst_rank, size_bytes, tag), self.irecv(src_rank, tag)])

    # ----------------------------------------------------------- collectives
    def next_collective_tag(self) -> int:
        """Reserve a unique (negative) tag block for one collective round."""
        self._collective_seq += 1
        return -(self._collective_seq * 4096)

    def alltoall(self, size_per_pair: int, group: Optional[Sequence[int]] = None) -> Iterator[WaitOp]:
        """Ring all-to-all (``yield from`` this inside a program)."""
        return _collectives.ring_alltoall(self, size_per_pair, group=group)

    def allreduce(self, size_bytes: int, group: Optional[Sequence[int]] = None) -> Iterator[WaitOp]:
        """Binary-tree allreduce (``yield from`` this inside a program)."""
        return _collectives.tree_allreduce(self, size_bytes, group=group)

    def reduce(self, size_bytes: int, group: Optional[Sequence[int]] = None) -> Iterator[WaitOp]:
        """Binary-tree reduce towards the group's first rank."""
        return _collectives.tree_reduce(self, size_bytes, group=group)

    def broadcast(self, size_bytes: int, group: Optional[Sequence[int]] = None) -> Iterator[WaitOp]:
        """Binary-tree broadcast from the group's first rank."""
        return _collectives.tree_broadcast(self, size_bytes, group=group)

    def allgather(self, size_per_rank: int, group: Optional[Sequence[int]] = None) -> Iterator[WaitOp]:
        """Ring allgather."""
        return _collectives.ring_allgather(self, size_per_rank, group=group)

    def reduce_scatter(self, size_bytes: int, group: Optional[Sequence[int]] = None) -> Iterator[WaitOp]:
        """Ring reduce-scatter (``yield from`` this inside a program)."""
        return _collectives.ring_reduce_scatter(self, size_bytes, group=group)

    def ring_allreduce(self, size_bytes: int, group: Optional[Sequence[int]] = None) -> Iterator[WaitOp]:
        """Bandwidth-optimal ring allreduce (reduce-scatter + allgather)."""
        return _collectives.ring_allreduce(self, size_bytes, group=group)

    def barrier(self, group: Optional[Sequence[int]] = None) -> Iterator[WaitOp]:
        """Group barrier."""
        return _collectives.barrier(self, group=group)

    # ------------------------------------------------------------ telemetry
    def begin_iteration(self, iteration: int) -> None:
        """Timestamp the start of one application iteration."""
        record = IterationRecord(rank=self.rank, iteration=iteration, start_time=self.now)
        if self._iteration is not None:
            if self._enclosing is None:
                self._enclosing = []
            self._enclosing.append(self._iteration)
        self._iteration = record
        self.job.record.iterations.append(record)

    def end_iteration(self) -> None:
        """Timestamp the end of the innermost open iteration."""
        record = self._iteration
        if record is None:
            raise RuntimeError("end_iteration() called without begin_iteration()")
        record.end_time = self.now
        self._iteration = self._enclosing.pop() if self._enclosing else None


class MpiEngine:
    """Drives every job's rank programs over one Dragonfly network."""

    def __init__(self, network: Network):
        self.network = network
        self.sim = network.sim
        self.config = network.config
        self.jobs: List[MpiJob] = []
        self._started = False
        #: Per job: the rank contexts, filled when the job starts.
        self._ranks: List[List[RankContext]] = []
        #: Per job: one mailbox per rank.
        self._mailboxes: List[List[MailBox]] = []
        #: One flag per node of the system: set once a job holds the node.
        self._occupied = bytearray(network.num_nodes)
        #: Optional observer mirroring every executed primitive into a trace
        #: (see repro.traces).  Pure observation: attaching one never changes
        #: the simulation.
        self.recorder: Optional["TraceRecorder"] = None
        network.on_message_delivered = self._on_message_delivered

    # ------------------------------------------------------------ job setup
    def add_job(
        self,
        name: str,
        nodes: Sequence[int],
        application: Optional["Application"] = None,
        start_time: float = 0.0,
    ) -> MpiJob:
        """Register a job occupying ``nodes`` (rank i runs on nodes[i]).

        ``start_time`` delays the job's rank programs until that simulated
        time; its nodes are reserved (and its mailboxes exist) from the
        beginning, so a staggered job can only ever *receive* after it
        arrives.
        """
        for node in nodes:
            if not 0 <= node < self.network.num_nodes:
                raise ValueError(f"node {node} does not exist in this system")
            if self._occupied[node]:
                raise ValueError(f"node {node} is already occupied by another job")
        job = MpiJob(len(self.jobs), name, nodes, application=application, start_time=start_time)
        self.jobs.append(job)
        for node in nodes:
            self._occupied[node] = 1
        self._ranks.append([])
        self._mailboxes.append([MailBox() for _ in nodes])
        self.network.stats.register_application(job.record)
        return job

    def start(self) -> None:
        """Start (or schedule) every job's rank programs at its arrival time.

        Jobs with ``start_time == 0`` start immediately; staggered jobs are
        injected by a calendar event at their arrival time, so the engine's
        clock drives arrivals exactly like any other simulated event.
        """
        self._started = True
        for job in self.jobs:
            if job.application is None:
                raise RuntimeError(f"job {job.name} has no application attached")
            if job.start_time > self.sim.now:
                self.sim.schedule_at(
                    job.start_time, self._start_job, job, kind=EventKind.JOB_START
                )
            else:
                self._start_job(job)

    def _start_job(self, job: MpiJob) -> None:
        """Instantiate and advance every rank program of one job, now."""
        states = self._ranks[job.job_id]
        job.record.start_time = self.sim.now
        for rank in range(job.num_ranks):
            state = RankContext(self, job, rank)
            state.generator = job.application.program(state)
            states.append(state)
            self._advance(state, None)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Start all jobs (if not started) and run the simulation."""
        if not self._started:
            self.start()
        end = self.sim.run(until=until, max_events=max_events)
        return end

    @property
    def all_finished(self) -> bool:
        """Whether every rank of every job has started and completed its program.

        Ranks of a staggered job do not exist until its arrival event fires,
        so a run cut short before an arrival correctly reads as unfinished.
        """
        return (
            self._started
            and sum(job.num_ranks for job in self.jobs) > 0
            and all(
                len(states) == job.num_ranks and all(state.finished for state in states)
                for job, states in zip(self.jobs, self._ranks)
            )
        )

    # -------------------------------------------------------- program driver
    def _advance(self, state: RankContext, value: Optional[object]) -> None:
        """Resume a rank program until it blocks, computes or finishes."""
        while True:
            try:
                operation = state.generator.send(value)
            except StopIteration:
                state.finished = True
                state.job.record.finish_time[state.rank] = self.sim.now
                return
            value = None
            if isinstance(operation, ComputeOp):
                if operation.duration <= 0:
                    # Skipped identically on record and on replay (the
                    # recorder hook sits below), keeping traces minimal.
                    continue
                if self.recorder is not None:
                    self.recorder.record_compute(
                        state.job, state.rank, operation.duration, self.sim.now
                    )
                state.job.record.add_compute_time(state.rank, operation.duration)
                sim = self.sim
                sim.push(sim.now + operation.duration, self._advance, (state, None), _COMPUTE_DONE)
                return
            if isinstance(operation, WaitOp):
                # Record the full request list before the completed-filter so
                # replay re-issues the identical wait set.
                if self.recorder is not None:
                    self.recorder.record_wait(
                        state.job, state.rank, operation.requests, self.sim.now
                    )
                pending = 0
                for request in operation.requests:
                    if request.completed or request.waiter is state:
                        # Done already, or listed twice in this wait.
                        continue
                    if request.waiter is not None:
                        raise RuntimeError(
                            f"{request!r} is already waited on by another rank"
                        )
                    request.waiter = state
                    pending += 1
                if not pending:
                    continue
                state.pending = pending
                state.block_start = self.sim.now
                return
            raise TypeError(
                f"rank program yielded {operation!r}; expected a ComputeOp or WaitOp"
            )

    def _resume(self, state: RankContext) -> None:
        """Resume a rank whose wait has completed, charging the blocked time."""
        if state.block_start is not None:
            state.job.record.add_comm_time(state.rank, self.sim.now - state.block_start)
            state.block_start = None
        self._advance(state, None)

    # ------------------------------------------------------------ primitives
    def isend(
        self, job: MpiJob, src_rank: int, dst_rank: int, size_bytes: int, tag: int
    ) -> SendRequest:
        """Start a non-blocking send; protocol chosen by message size."""
        if not 0 <= dst_rank < job.num_ranks:
            raise ValueError(f"destination rank {dst_rank} outside job {job.name}")
        size_bytes = max(1, int(size_bytes))
        request = SendRequest(src_rank, dst_rank, tag, size_bytes)
        sim = self.sim
        now = sim.now
        if self.recorder is not None:
            self.recorder.record_send(job, src_rank, dst_rank, size_bytes, tag, request, now)
        job.record.record_send(size_bytes)
        # An eager or loopback send completes after a small software overhead.
        done = now + self.config.message_overhead_ns

        if dst_rank == src_rank:
            # Loopback: no network involvement.
            sim.push(done, _complete, (request, done))
            envelope = Envelope(src_rank, dst_rank, tag, size_bytes)
            sim.push(done, self._arrive_eager, (job, envelope))
            return request

        src_node, dst_node = job.node_of(src_rank), job.node_of(dst_rank)
        if size_bytes <= self.config.eager_threshold_bytes:
            message = Message(
                src_node,
                dst_node,
                size_bytes,
                app_id=job.job_id,
                tag=tag,
                kind=_DATA,
                create_time=now,
                payload=Envelope(src_rank, dst_rank, tag, size_bytes),
            )
            self.network.send_message(message)
            # Eager sends complete locally once the NIC has buffered the data.
            sim.push(done, _complete, (request, done))
        else:
            rts = Message(
                src_node,
                dst_node,
                CONTROL_MESSAGE_BYTES,
                app_id=job.job_id,
                tag=tag,
                kind=_RTS,
                create_time=now,
                payload=Rendezvous(src_rank, dst_rank, tag, size_bytes, request),
            )
            self.network.send_message(rts)
        return request

    def irecv(self, job: MpiJob, rank: int, src_rank: int, tag: int) -> RecvRequest:
        """Post a non-blocking receive and match it against early arrivals."""
        if src_rank != ANY_SOURCE and not 0 <= src_rank < job.num_ranks:
            raise ValueError(f"source rank {src_rank} outside job {job.name}")
        request = RecvRequest(rank, src_rank, tag)
        if self.recorder is not None:
            self.recorder.record_recv(job, rank, src_rank, tag, request, self.sim.now)
        envelope = self._mailboxes[job.job_id][rank].post(request)
        if envelope is not None:
            request.matched_envelope = envelope
            if isinstance(envelope, Rendezvous):
                self._send_cts(job, request, envelope)
            else:
                request.complete(self.sim.now)
        return request

    # --------------------------------------------------------- network side
    def _on_message_delivered(self, message: Message) -> None:
        """Run the protocol step a delivered message's envelope calls for."""
        envelope = message.payload
        job = self.jobs[message.app_id]
        kind = message.kind
        if kind is _DATA:
            if isinstance(envelope, Rendezvous):
                self._arrive_rendezvous_data(envelope)
            else:
                self._arrive_eager(job, envelope)
        elif kind is _RTS:
            self._arrive_rts(job, envelope)
        elif kind is _CTS:
            self._arrive_cts(job, envelope)
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"unknown MPI message kind {kind!r}")

    def _arrive_eager(self, job: MpiJob, envelope: Envelope) -> None:
        mailbox = self._mailboxes[job.job_id][envelope.dst_rank]
        request = mailbox.match_arrival(envelope)
        if request is not None:
            request.matched_envelope = envelope
            request.complete(self.sim.now)
        else:
            mailbox.store_unexpected(envelope)

    def _arrive_rts(self, job: MpiJob, rendezvous: Rendezvous) -> None:
        mailbox = self._mailboxes[job.job_id][rendezvous.dst_rank]
        request = mailbox.match_arrival(rendezvous)
        if request is not None:
            request.matched_envelope = rendezvous
            self._send_cts(job, request, rendezvous)
        else:
            mailbox.store_unexpected(rendezvous)

    def _send_cts(self, job: MpiJob, request: RecvRequest, rendezvous: Rendezvous) -> None:
        rendezvous.recv_request = request
        cts = Message(
            job.node_of(rendezvous.dst_rank),
            job.node_of(rendezvous.src_rank),
            CONTROL_MESSAGE_BYTES,
            app_id=job.job_id,
            tag=rendezvous.tag,
            kind=_CTS,
            create_time=self.sim.now,
            payload=rendezvous,
        )
        self.network.send_message(cts)

    def _arrive_cts(self, job: MpiJob, rendezvous: Rendezvous) -> None:
        data = Message(
            job.node_of(rendezvous.src_rank),
            job.node_of(rendezvous.dst_rank),
            rendezvous.size_bytes,
            app_id=job.job_id,
            tag=rendezvous.tag,
            kind=_DATA,
            create_time=self.sim.now,
            payload=rendezvous,
        )
        self.network.send_message(data)

    def _arrive_rendezvous_data(self, rendezvous: Rendezvous) -> None:
        """The data has arrived: complete the sender's request, then the receiver's."""
        now = self.sim.now
        rendezvous.send_request.complete(now)
        rendezvous.recv_request.complete(now)
