"""Core event loop, events, timeouts, processes, and combinators.

A process is a Python generator that yields :class:`Event` objects — or
a bare delay in seconds (``yield 0.004``) for a plain sleep; the
environment resumes it with the event's value once the event fires. A
process is itself an event that fires when the generator returns, so
processes can wait on each other (fork/join). :class:`AllOf` and
:class:`AnyOf` (also spelled ``ev1 & ev2`` / ``ev1 | ev2``) compose
events into joins and races.

The scheduler keeps two structures: a binary heap of bare
``(time, sequence, event)`` tuples for *future* events, and a plain FIFO
deque for *same-instant* events (``succeed``/``fail``/``timeout(0)``),
which skips the heap — and its tuple allocation — entirely. Together
they replay events in strict ``(time, sequence)`` order, giving
deterministic FIFO behaviour among simultaneous events; every golden
metrics hash in the test suite depends on this ordering.

Hot-path design (see ``docs/engine.md`` for the full contract):

- **Bare-delay sleeps.** ``yield 0.004`` — a plain float or int — is
  the allocation-free spelling of a value-less sleep: the *process
  itself* becomes the heap entry ``(time, seq, process)`` and the
  dispatcher resumes its generator directly. No event object exists at
  any point. ``yield env.timeout(d)`` allocates its sequence number at
  the ``timeout()`` call and ``yield d`` at the dispatch of the yield,
  which is the same scheduling position — so the two spellings replay
  identically and golden hashes do not care which one a model uses.
  Interrupting a bare-delay sleep invalidates a wake token
  (``Process._wake``); the orphaned heap entry is skipped as stale.
- **Pooled timeouts.** ``env.timeout()`` — sleeps that carry a value or
  feed a combinator — reuses :class:`Timeout` objects from a free list.
  A fired timeout whose only consumer was the process that yielded it is
  recycled immediately, so steady-state sleeping allocates nothing but
  the heap tuple. Consequence: do not retain a fired ``Timeout`` object;
  keep the value the ``yield`` returned instead.
- **Same-instant deque.** Triggering an event never touches the heap:
  the event is appended to the pending deque and drained FIFO once every
  heap entry at the current instant (which was scheduled earlier, i.e.
  with a smaller sequence number) has fired. Fire-chains of zero-delay
  handoffs — endorsement replies, combinator resolutions, process
  completions — cost one ``append``/``popleft`` pair per event.
- **Single-slot callbacks.** Most events have exactly one waiter, so the
  first callback lives in a plain attribute (``_cb``) and only the rare
  second-and-later waiters allocate an overflow list (``_cbs``).
- **Direct process resume.** A process yielding a fresh timeout is
  stored in the timeout's ``_proc`` slot; the ``run()`` loop resumes the
  generator inline, with no callback object and no intermediate call.
- **Batched same-instant wakeups.** ``run()`` drains every event that
  shares the current timestamp in one inner loop, re-checking the
  ``until`` horizon (and the trace hook) once per distinct instant
  rather than once per event.
- **O(1) trace hook.** When no hook is installed the dispatcher pays a
  single ``is not None`` test; installing one never changes the
  schedule (observation only).

Scheduling-order invariants the optimisations must preserve (the golden
hashes pin them): ``succeed``/``fail`` always *schedule* the event at
the current instant (callbacks never run synchronously from the
trigger), heap entries carry sequence numbers allocated in call order
and fire in strict ``(time, sequence)`` order, and same-instant events
fire in trigger order (deque position — they need no sequence numbers,
and ``_sequence`` counts only heap entries). This replays exactly the
strict ``(time, schedule-call)`` total order of the pre-overhaul
engine, because heap entries at the current instant always predate —
and therefore out-rank — everything appended while that instant is
being processed.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Callable, Generator, Iterable, List, Optional

from repro.errors import SimulationError


class Event:
    """Something that will happen at a point in simulated time.

    Callbacks attached via the internal :meth:`_attach` run when the
    event fires. An event fires at most once; ``succeed``/``fail``
    schedule it for the current instant. Events compose: ``a & b`` waits
    for both (:class:`AllOf`), ``a | b`` for the first (:class:`AnyOf`).
    """

    __slots__ = (
        "env",
        "_proc",
        "_cb",
        "_cbs",
        "_value",
        "_exception",
        "triggered",
        "processed",
    )

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Sole waiting process, resumed inline by the dispatcher with no
        #: callback object at all (the dominant single-waiter case).
        self._proc: Optional["Process"] = None
        #: First callback; overflow goes to ``_cbs``.
        self._cb: Optional[Callable[["Event"], None]] = None
        self._cbs: Optional[List[Callable[["Event"], None]]] = None
        self._value: object = None
        self._exception: Optional[BaseException] = None
        self.triggered = False
        self.processed = False

    @property
    def value(self) -> object:
        """The value the event fired with."""
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The exception the event failed with, if any."""
        return self._exception

    def succeed(self, value: object = None) -> "Event":
        """Schedule this event to fire now with ``value``."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self._value = value
        self.env._pending.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Schedule this event to fire now by raising ``exception``."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self._exception = exception
        self.env._pending.append(self)
        return self

    # -- waiter wiring (internal) -------------------------------------------

    def _attach(self, callback: Callable[["Event"], None]) -> None:
        """Attach ``callback``; runs immediately if already processed."""
        if self.processed:
            callback(self)
        elif self._cb is None:
            self._cb = callback
        elif self._cbs is None:
            self._cbs = [callback]
        else:
            self._cbs.append(callback)

    def _detach(self, callback: Callable[["Event"], None]) -> None:
        """Remove one occurrence of ``callback``, preserving the order of
        the remaining waiters (interrupt support)."""
        if self._cb == callback:
            cbs = self._cbs
            if cbs:
                self._cb = cbs.pop(0)
            else:
                self._cb = None
        elif self._cbs is not None:
            try:
                self._cbs.remove(callback)
            except ValueError:  # pragma: no cover - defensive
                pass

    def _fire(self) -> None:
        """Run all attached callbacks (dispatcher path for plain events)."""
        self.processed = True
        cb = self._cb
        if cb is not None:
            self._cb = None
            cb(self)
        cbs = self._cbs
        if cbs is not None:
            self._cbs = None
            for cb in cbs:
                cb(self)

    # -- combinator operators ------------------------------------------------

    def __and__(self, other: "Event") -> "AllOf":
        """``a & b``: an event that fires once both have fired."""
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        """``a | b``: an event that fires with the first of the two."""
        return AnyOf(self.env, [self, other])


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    Instances are pooled: once fired with no waiter other than the
    process that yielded them, they return to the environment's free
    list and are reused by later ``env.timeout()`` calls. Hold on to the
    *value* a ``yield env.timeout(...)`` returns, never to the fired
    timeout object itself.
    """

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: object = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.triggered = True
        self._value = value
        if delay == 0.0:
            env._pending.append(self)
        else:
            env._sequence = sequence = env._sequence + 1
            heappush(env._queue, (env.now + delay, sequence, self))


class Interrupt(Exception):
    """Raised inside a process that another process interrupted."""

    def __init__(self, cause: object = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """A running generator; fires (as an event) when the generator ends."""

    __slots__ = ("_generator", "_send", "_waiting_on", "_wake", "_name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator,
        name: Optional[str] = None,
    ) -> None:
        # Field init is inlined (no super().__init__ call): processes are
        # created per endorsement fan-out, so construction is hot. The
        # bootstrap is the process itself appended to the same-instant
        # deque: an untriggered Process in the deque means "first resume"
        # (a triggered one is a completion event) — one schedule entry,
        # no bootstrap event object.
        self.env = env
        self._proc = None
        self._cb = None
        self._cbs = None
        self._value = None
        self._exception = None
        self.triggered = False
        self.processed = False
        self._generator = generator
        #: Bound ``generator.send`` (skips one attribute lookup per resume).
        self._send = generator.send
        self._waiting_on: Optional[Event] = None
        #: Sequence number of the outstanding bare-delay sleep, if any.
        #: A heap entry whose sequence no longer matches is stale (the
        #: sleep was interrupted) and is skipped by the dispatcher.
        self._wake: Optional[int] = None
        self._name = name
        env._pending.append(self)

    @property
    def name(self) -> str:
        """Process name for traces and error messages (lazy: the
        generator's ``__name__`` unless one was passed in)."""
        return self._name or getattr(self._generator, "__name__", "process")

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The event the process was waiting on is detached; it may still
        fire later but will no longer resume this process.
        """
        if self.triggered:
            return
        waiting_on = self._waiting_on
        if waiting_on is not None:
            if waiting_on._proc is self:
                waiting_on._proc = None
            else:
                waiting_on._detach(self._resume)
            self._waiting_on = None
        else:
            # Sleeping on a bare delay: invalidate the wake token so the
            # heap entry (which cannot be removed cheaply) is skipped as
            # stale when it surfaces.
            self._wake = None
        poke = Event(self.env)
        poke.succeed()
        poke._attach(lambda _event: self._throw(Interrupt(cause)))

    def _throw(self, exc: BaseException) -> None:
        if self.triggered:
            return
        try:
            target = self._generator.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as error:
            self.fail(error)
            return
        self._wait_on(target)

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        exception = event._exception
        try:
            if exception is not None:
                target = self._generator.throw(exception)
            else:
                target = self._send(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as error:
            self.fail(error)
            return
        cls = target.__class__
        if cls is float or cls is int:
            # Bare-delay sleep: no Timeout object at all.
            self._sleep(target)
            return
        # Fast path: an unprocessed event of this environment with no
        # other waiter resumes this generator directly, no callback.
        if (
            isinstance(target, Event)
            and not target.processed
            and target._proc is None
            and target._cb is None
            and target.env is self.env
        ):
            target._proc = self
            self._waiting_on = target
            return
        self._wait_on(target)

    def _resume_direct(self) -> None:
        """Resume the generator with ``None`` — bootstrap (first resume)
        or bare-delay sleep expiry (``step()`` path; ``run()`` inlines
        this)."""
        try:
            target = self._send(None)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as error:
            self.fail(error)
            return
        cls = target.__class__
        if cls is float or cls is int:
            self._sleep(target)
            return
        if (
            isinstance(target, Event)
            and not target.processed
            and target._proc is None
            and target._cb is None
            and target.env is self.env
        ):
            target._proc = self
            self._waiting_on = target
            return
        self._wait_on(target)

    def _sleep(self, delay: float) -> None:
        """Suspend until ``delay`` simulated seconds from now.

        The allocation-free sleep path behind ``yield <delay>``: the
        process itself is scheduled as the heap entry — no event object
        is created. ``self._wake`` records the entry's sequence number;
        :meth:`interrupt` cancels the sleep by clearing it, leaving a
        stale heap entry the dispatcher skips.
        """
        env = self.env
        if delay > 0:
            env._sequence = sequence = env._sequence + 1
            heappush(env._queue, (env.now + delay, sequence, self))
            self._wake = sequence
            return
        if delay == 0:
            # Zero-delay sleeps ride a pooled timeout through the
            # same-instant deque (processes never sit in the deque:
            # there they would be mistaken for completion events).
            pool = env._timeout_pool
            if pool:
                tick = pool.pop()
                tick.processed = False
            else:
                tick = Timeout.__new__(Timeout)
                tick.env = env
                tick._cb = None
                tick._cbs = None
                tick._value = None
                tick._exception = None
                tick.triggered = True
                tick.processed = False
            tick._proc = self
            self._waiting_on = tick
            env._pending.append(tick)
            return
        # Negative delay: thrown back into the generator like any other
        # yield misuse.
        try:
            target = self._generator.throw(
                SimulationError(f"negative sleep delay: {delay!r}")
            )
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as raised:
            self.fail(raised)
            return
        self._wait_on(target)

    def _wait_on(self, target: object) -> None:
        # Misuse (yielding a non-event or a foreign event) is thrown back
        # into the generator; if it does not handle the error, the process
        # fails like any other uncaught exception.
        while True:
            cls = target.__class__
            if cls is float or cls is int:
                self._sleep(target)
                return
            if isinstance(target, Event) and target.env is self.env:
                break
            if isinstance(target, Event):
                error = SimulationError(
                    "event belongs to a different environment"
                )
            else:
                error = SimulationError(
                    f"process yielded a non-event: {target!r}"
                )
            try:
                target = self._generator.throw(error)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as raised:
                self.fail(raised)
                return
        self._waiting_on = target
        if not target.processed and target._proc is None and target._cb is None:
            target._proc = self
        else:
            target._attach(self._resume)


class AllOf(Event):
    """Fires once every member event has fired; its value is the list of
    member values in member order (``a & b`` builds one).

    If any member fails, the join fails immediately with that member's
    exception — remaining members keep running but no longer resolve
    this combinator.
    """

    __slots__ = ("events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        members = list(events)
        self.events = members
        #: Members that have not fired yet.
        self._count = len(members)
        if self._count == 0:
            self.succeed([])
            return
        # One shared callback per member — member values are collected in
        # one pass when the last member fires, so no per-member closure.
        # The attach is inlined (see Event._attach) for construction speed.
        check = self._check
        for event in members:
            if event.env is not env:
                raise SimulationError(
                    "AllOf member is not an event of this environment"
                )
            if event.processed:
                check(event)
            elif event._cb is None:
                event._cb = check
            elif event._cbs is None:
                event._cbs = [check]
            else:
                event._cbs.append(check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if event._exception is not None:
            # One member failed: the join fails with its error.
            self.fail(event._exception)
            return
        self._count -= 1
        if self._count == 0:
            self.succeed([member._value for member in self.events])

    def __and__(self, other: Event) -> "AllOf":
        """Flatten ``(a & b) & c`` into one three-member join."""
        if self.triggered:
            return AllOf(self.env, [self, other])
        return AllOf(self.env, [*self.events, other])


class AnyOf(Event):
    """Fires with the value of the first member event to fire (``a | b``
    builds one); later firings are ignored.

    :attr:`first_index` / :attr:`first_event` identify the winner. If
    the first member to fire failed, the race fails with its exception.
    """

    __slots__ = ("events", "first_index")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        members = list(events)
        if not members:
            raise SimulationError("AnyOf requires at least one event")
        self.events = members
        #: Index of the member that fired first (None until then).
        self.first_index: Optional[int] = None
        check = self._check
        for event in members:
            if event.env is not env:
                raise SimulationError(
                    "AnyOf member is not an event of this environment"
                )
            if event.processed:
                check(event)
            elif event._cb is None:
                event._cb = check
            elif event._cbs is None:
                event._cbs = [check]
            else:
                event._cbs.append(check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        self.first_index = self.events.index(event)
        if event._exception is not None:
            self.fail(event._exception)
        else:
            self.succeed(event._value)

    @property
    def first_event(self) -> Optional[Event]:
        """The member event that won the race (None before the firing)."""
        if self.first_index is None:
            return None
        return self.events[self.first_index]

    def __or__(self, other: Event) -> "AnyOf":
        """Flatten ``(a | b) | c`` into one three-member race."""
        if self.triggered:
            return AnyOf(self.env, [self, other])
        return AnyOf(self.env, [*self.events, other])


class Environment:
    """The simulation clock and event queue.

    ``now`` is a plain attribute for read speed; treat it as read-only —
    only the event loop advances the clock.
    """

    __slots__ = ("now", "_queue", "_pending", "_sequence", "_trace_hook", "_timeout_pool")

    def __init__(self) -> None:
        #: Current simulated time in seconds (read-only).
        self.now = 0.0
        #: Future events: a heap of ``(time, sequence, event)``.
        self._queue: List[tuple] = []
        #: Same-instant events, drained FIFO after the heap entries that
        #: share the current timestamp (which always have smaller
        #: sequence numbers — see the module docstring).
        self._pending: deque = deque()
        self._sequence = 0
        self._trace_hook: Optional[Callable[[float, Event], None]] = None
        #: Free list of fired, consumer-less Timeout objects.
        self._timeout_pool: List[Timeout] = []

    def set_trace_hook(
        self, hook: Optional[Callable[[float, Event], None]]
    ) -> None:
        """Install an observer called as ``hook(time, event)`` for every
        processed event. For a bare-delay sleep expiry the ``event``
        argument is the :class:`Process` being woken (there is no event
        object on that path). Observation only: the hook must not
        schedule events or mutate simulation state, so a hooked run is
        bit-identical to an unhooked one. Installing a hook from inside
        a running simulation takes effect at the next distinct
        timestamp."""
        self._trace_hook = hook

    # -- factory helpers -----------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        # Inlined field init (no __init__ dispatch): gates are created per
        # transaction, so construction is hot.
        event = Event.__new__(Event)
        event.env = self
        event._proc = None
        event._cb = None
        event._cbs = None
        event._value = None
        event._exception = None
        event.triggered = False
        event.processed = False
        return event

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        pool = self._timeout_pool
        if pool:
            timeout = pool.pop()
            timeout._value = value
            timeout.processed = False
        else:
            timeout = Timeout.__new__(Timeout)
            timeout.env = self
            timeout._cb = None
            timeout._cbs = None
            timeout._exception = None
            timeout._value = value
            timeout.triggered = True
            timeout.processed = False
            timeout._proc = None
        if delay == 0.0:
            self._pending.append(timeout)
        else:
            self._sequence = sequence = self._sequence + 1
            heappush(self._queue, (self.now + delay, sequence, timeout))
        return timeout

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start ``generator`` as a process."""
        # Inlined Process.__init__ (kept in sync with it): processes are
        # spawned per endorsement fan-out, so construction is hot.
        proc = Process.__new__(Process)
        proc.env = self
        proc._proc = None
        proc._cb = None
        proc._cbs = None
        proc._value = None
        proc._exception = None
        proc.triggered = False
        proc.processed = False
        proc._generator = generator
        proc._send = generator.send
        proc._waiting_on = None
        proc._wake = None
        proc._name = name
        self._pending.append(proc)
        return proc

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """An event that fires once every event in ``events`` has; its
        value is the list of member values in member order."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """An event that fires with the value of the first member of
        ``events`` to fire; inspect ``.first_index`` / ``.first_event``
        for the winner."""
        return AnyOf(self, events)

    # -- execution -----------------------------------------------------------

    def _dispatch(self, event: Event) -> None:
        """Fire one popped event (kept in sync with the inlined loop in
        :meth:`run`)."""
        event.processed = True
        proc = event._proc
        if proc is not None:
            event._proc = None
            proc._resume(event)
        if event._cb is not None or event._cbs is not None:
            event._fire()
        elif event.__class__ is Timeout:
            # No other consumer: recycle into the free list.
            event._value = None
            self._timeout_pool.append(event)

    def step(self) -> None:
        """Process the next scheduled event.

        Raises :class:`SimulationError` when the schedule is empty (the
        ``run``/``step`` boundary contract pinned by the engine tests).
        Stale heap entries — bare-delay sleeps whose process was
        interrupted — are skipped, not counted as a step.
        """
        queue = self._queue
        pending = self._pending
        while True:
            sequence = None
            if queue and queue[0][0] == self.now:
                time, sequence, event = heappop(queue)
            elif pending:
                time, event = self.now, pending.popleft()
            elif queue:
                time, sequence, event = heappop(queue)
                self.now = time
            else:
                raise SimulationError("step() on an empty schedule")
            if event.__class__ is Process:
                if sequence is not None:
                    # Heap entries holding a Process are bare-delay sleep
                    # wakeups (completions travel through the deque).
                    if event._wake != sequence:
                        continue  # interrupted sleep: stale entry
                    hook = self._trace_hook
                    if hook is not None:
                        hook(time, event)
                    event._resume_direct()
                    return
                if not event.triggered:
                    # Deque entry, not yet triggered: process bootstrap.
                    hook = self._trace_hook
                    if hook is not None:
                        hook(time, event)
                    event._resume_direct()
                    return
            hook = self._trace_hook
            if hook is not None:
                hook(time, event)
            self._dispatch(event)
            return

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or simulated time reaches ``until``.

        Boundary contract (pinned by ``tests/sim/test_run_until_boundary``):
        events scheduled exactly *at* ``until`` are processed — including
        ones first scheduled while handling that instant — and the clock
        ends at ``until`` even if the queue drained earlier.
        """
        if until is not None and until < self.now:
            raise SimulationError("cannot run into the past")
        queue = self._queue
        pending = self._pending
        pool = self._timeout_pool
        timeout_class = Timeout
        process_class = Process
        float_class = float
        int_class = int
        pop = heappop
        push = heappush
        popleft = pending.popleft
        append = pending.append
        # +inf sentinel keeps the horizon test a single float compare.
        horizon = float("inf") if until is None else until
        # The hook is latched per run() call: installing one from inside
        # a running simulation takes effect on the next run()/step().
        hook = self._trace_hook
        time = self.now
        while True:
            # Phase 1: heap entries at the current instant. These were
            # all scheduled before this instant began, so their sequence
            # numbers precede anything appended to the deque while the
            # instant is handled. The dispatch body below mirrors
            # step()/_dispatch, inlined — with the generator resume for
            # the dominant timeout-with-waiting-process case folded in.
            while queue and queue[0][0] == time:
                _, seq, event = pop(queue)
                if event.__class__ is process_class:
                    # Bare-delay sleep expiry: the process itself is the
                    # heap entry — resume the generator with None, with
                    # no event object anywhere on the path.
                    proc = event
                    if proc._wake != seq:
                        continue  # interrupted sleep: stale entry
                    if hook is not None:
                        hook(time, proc)
                    try:
                        target = proc._send(None)
                    except StopIteration as stop:
                        # Inlined succeed(): the engine is the sole
                        # completer of a process, so no triggered guard.
                        proc.triggered = True
                        proc._value = stop.value
                        append(proc)
                    except BaseException as error:
                        proc.fail(error)
                    else:
                        tcls = target.__class__
                        if (
                            (tcls is float_class or tcls is int_class)
                            and target > 0
                        ):
                            self._sequence = seq = self._sequence + 1
                            push(queue, (time + target, seq, proc))
                            proc._wake = seq
                        elif (
                            isinstance(target, Event)
                            and not target.processed
                            and target._proc is None
                            and target._cb is None
                            and target.env is self
                        ):
                            target._proc = proc
                            proc._waiting_on = target
                        else:
                            proc._wait_on(target)
                    continue
                if hook is not None:
                    hook(time, event)
                event.processed = True
                proc = event._proc
                if proc is not None:
                    event._proc = None
                    exc = event._exception
                    try:
                        if exc is None:
                            target = proc._send(event._value)
                        else:
                            target = proc._generator.throw(exc)
                    except StopIteration as stop:
                        proc.triggered = True
                        proc._value = stop.value
                        proc._waiting_on = None
                        append(proc)
                    except BaseException as error:
                        proc._waiting_on = None
                        proc.fail(error)
                    else:
                        tcls = target.__class__
                        if (
                            (tcls is float_class or tcls is int_class)
                            and target > 0
                        ):
                            self._sequence = seq = self._sequence + 1
                            push(queue, (time + target, seq, proc))
                            proc._wake = seq
                            proc._waiting_on = None
                        elif (
                            isinstance(target, Event)
                            and not target.processed
                            and target._proc is None
                            and target._cb is None
                            and target.env is self
                        ):
                            target._proc = proc
                            proc._waiting_on = target
                        else:
                            proc._wait_on(target)
                cb = event._cb
                if cb is not None:
                    event._cb = None
                    cb(event)
                    cbs = event._cbs
                    if cbs is not None:
                        event._cbs = None
                        for cb in cbs:
                            cb(event)
                elif event._cbs is not None:
                    event._fire()
                elif event.__class__ is timeout_class:
                    event._value = None
                    pool.append(event)
            # Phase 2: same-instant arrivals, FIFO. Handlers may append
            # more (zero-delay chains); they drain in this same loop.
            # They cannot add heap entries at this instant (delays are
            # strictly positive on the heap path), so phase 1 never needs
            # revisiting.
            while pending:
                event = popleft()
                if event.__class__ is process_class and not event.triggered:
                    # Bootstrap: first resume of a just-created process.
                    # (A triggered Process in the deque is its completion
                    # event and falls through to the normal dispatch.)
                    proc = event
                    if hook is not None:
                        hook(time, proc)
                    try:
                        target = proc._send(None)
                    except StopIteration as stop:
                        proc.triggered = True
                        proc._value = stop.value
                        append(proc)
                    except BaseException as error:
                        proc.fail(error)
                    else:
                        tcls = target.__class__
                        if (
                            (tcls is float_class or tcls is int_class)
                            and target > 0
                        ):
                            self._sequence = seq = self._sequence + 1
                            push(queue, (time + target, seq, proc))
                            proc._wake = seq
                        elif (
                            isinstance(target, Event)
                            and not target.processed
                            and target._proc is None
                            and target._cb is None
                            and target.env is self
                        ):
                            target._proc = proc
                            proc._waiting_on = target
                        else:
                            proc._wait_on(target)
                    continue
                if hook is not None:
                    hook(time, event)
                event.processed = True
                proc = event._proc
                if proc is not None:
                    event._proc = None
                    exc = event._exception
                    try:
                        if exc is None:
                            target = proc._send(event._value)
                        else:
                            target = proc._generator.throw(exc)
                    except StopIteration as stop:
                        proc.triggered = True
                        proc._value = stop.value
                        proc._waiting_on = None
                        append(proc)
                    except BaseException as error:
                        proc._waiting_on = None
                        proc.fail(error)
                    else:
                        tcls = target.__class__
                        if (
                            (tcls is float_class or tcls is int_class)
                            and target > 0
                        ):
                            self._sequence = seq = self._sequence + 1
                            push(queue, (time + target, seq, proc))
                            proc._wake = seq
                            proc._waiting_on = None
                        elif (
                            isinstance(target, Event)
                            and not target.processed
                            and target._proc is None
                            and target._cb is None
                            and target.env is self
                        ):
                            target._proc = proc
                            proc._waiting_on = target
                        else:
                            proc._wait_on(target)
                cb = event._cb
                if cb is not None:
                    event._cb = None
                    cb(event)
                    cbs = event._cbs
                    if cbs is not None:
                        event._cbs = None
                        for cb in cbs:
                            cb(event)
                elif event._cbs is not None:
                    event._fire()
                elif event.__class__ is timeout_class:
                    event._value = None
                    pool.append(event)
            # Instant fully drained: advance to the next scheduled time.
            if not queue:
                break
            time = queue[0][0]
            if time > horizon:
                self.now = until
                return
            self.now = time
        if until is not None:
            self.now = until

    def peek(self) -> float:
        """Time of the next event, or +inf if the queue is empty."""
        if self._pending:
            return self.now
        return self._queue[0][0] if self._queue else float("inf")
