"""Property-based tests of the engine's event-ordering contract.

Deterministic replay — and with it the parallel executor's
serial-equals-parallel guarantee — rests on the engine firing events
in nondecreasing time order with FIFO tie-breaking by insertion
sequence, whatever the cancellations.  Hypothesis searches for
programs that violate it.  The first tests check the order of a
fixed batch directly; the last two replay richer programs (bounded
``run()`` calls interleaved with scheduling, the ``max_events``
push-back, zero-delay reschedules and cancellation from callbacks)
through both the engine and :class:`ReferenceSimulator`, a naive
model of the contract, and demand identical traces.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.engine import SimulationError, Simulator

# Small time range to force plenty of same-timestamp ties.
EVENT_BATCH = st.lists(
    st.tuples(st.integers(min_value=0, max_value=40),  # time_ns
              st.booleans()),                          # cancelled?
    min_size=0, max_size=120)


class ReferenceEvent:
    __slots__ = ("cancelled",)

    def __init__(self):
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class ReferenceSimulator:
    """The ordering contract, stated as naively as possible.

    Pending events are kept in insertion order; the next event is the
    head of a stable sort of the live ones by time.  It has the
    engine's scheduling and ``run()`` surface, so one driver can replay
    a program through both.
    """

    def __init__(self):
        self.pending = []  # (time_ns, event, callback, args)
        self.now_ns = 0

    def schedule(self, delay_ns, callback, *args):
        return self.schedule_at(self.now_ns + delay_ns, callback, *args)

    def schedule_at(self, time_ns, callback, *args):
        assert time_ns >= self.now_ns
        event = ReferenceEvent()
        self.pending.append((time_ns, event, callback, args))
        return event

    def run(self, until_ns=None, max_events=None):
        executed = 0
        while True:
            live = [entry for entry in self.pending
                    if not entry[1].cancelled]
            if not live:
                break
            head = sorted(live, key=lambda entry: entry[0])[0]
            if until_ns is not None and head[0] > until_ns:
                break
            if max_events is not None and executed >= max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
            self.pending = [entry for entry in live if entry is not head]
            executed += 1
            self.now_ns = head[0]
            head[2](*head[3])
        if until_ns is not None and until_ns > self.now_ns:
            self.now_ns = until_ns


@settings(deadline=None, max_examples=200)
@given(batch=EVENT_BATCH)
def test_events_fire_in_time_then_fifo_order(batch):
    sim = Simulator()
    fired = []
    events = []
    for index, (time_ns, cancel) in enumerate(batch):
        events.append((sim.schedule_at(time_ns, fired.append, index),
                       time_ns, cancel))
    for event, _, cancel in events:
        if cancel:
            event.cancel()

    sim.run()

    live = [(time_ns, index)
            for index, (_, time_ns, cancel) in enumerate(events)
            if not cancel]
    # Nondecreasing time, FIFO among equal timestamps: exactly a
    # stable sort of the surviving batch by timestamp.
    expected = [index for _, index in
                sorted(live, key=lambda pair: pair[0])]
    assert fired == expected
    assert sim.processed_events == len(expected)


@settings(deadline=None, max_examples=100)
@given(batch=EVENT_BATCH, delay=st.integers(min_value=1, max_value=10))
def test_ordering_holds_for_events_scheduled_mid_run(batch, delay):
    """Events scheduled from inside callbacks obey the same order."""
    sim = Simulator()
    firings = []  # (clock at firing, tag)

    def chain(tag):
        firings.append((sim.now_ns, tag))
        if tag < 2:  # Original events spawn two generations.
            sim.schedule(delay, chain, tag + 1)

    for time_ns, cancel in batch:
        event = sim.schedule_at(time_ns, chain, 0)
        if cancel:
            event.cancel()
    sim.run()

    clocks = [clock for clock, _ in firings]
    # The engine clock never steps backwards across firings, even with
    # events injected mid-run.
    assert clocks == sorted(clocks)
    live = sum(1 for _, cancel in batch if not cancel)
    assert sim.processed_events == len(firings) == 3 * live


@settings(deadline=None, max_examples=100)
@given(times=st.lists(st.integers(min_value=0, max_value=40),
                      min_size=0, max_size=80),
       rng=st.randoms(use_true_random=False))
def test_cancellation_is_exact(times, rng):
    """Exactly the non-cancelled events fire, in stable-sort order."""
    sim = Simulator()
    fired = []
    events = [sim.schedule_at(t, fired.append, i)
              for i, t in enumerate(times)]
    cancelled = {i for i in range(len(events)) if rng.random() < 0.5}
    for i in cancelled:
        events[i].cancel()
    sim.run()
    expected = [i for _, i in
                sorted(((t, i) for i, t in enumerate(times)
                        if i not in cancelled),
                       key=lambda pair: pair[0])]
    assert fired == expected


# -- the engine against the reference model ------------------------------------

#: A driver-level program: schedule an event ``offset`` ns from now
#: (optionally cancelling it at once), run up to ``bound`` ns from
#: now, or run at most ``budget`` events.
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.integers(0, 30), st.booleans()),
        st.tuples(st.just("until"), st.integers(0, 40)),
        st.tuples(st.just("max_events"), st.integers(0, 4))),
    max_size=40)


def _replay_steps(sim, steps):
    """Drive one program; the trace is everything observable."""
    trace = []

    def fire(tag):
        trace.append(("fire", sim.now_ns, tag))

    for tag, step in enumerate(steps):
        if step[0] == "schedule":
            event = sim.schedule_at(sim.now_ns + step[1], fire, tag)
            if step[2]:
                event.cancel()
        elif step[0] == "until":
            sim.run(until_ns=sim.now_ns + step[1])
            trace.append(("until", sim.now_ns))
        else:
            try:
                sim.run(max_events=step[1])
                trace.append(("drained", sim.now_ns))
            except SimulationError:
                trace.append(("stopped", sim.now_ns))
    sim.run()
    trace.append(("end", sim.now_ns))
    return trace


@settings(deadline=None, max_examples=200)
@given(steps=_STEPS)
def test_bounded_runs_and_push_back_match_reference(steps):
    """Scheduling interleaved with ``until_ns``/``max_events`` stops.

    Both stops pop the next entry and push it back; a later schedule
    may then legally land *before* the pushed-back entry, and nothing
    may be lost or reordered.
    """
    assert _replay_steps(Simulator(), steps) == \
        _replay_steps(ReferenceSimulator(), steps)


#: One seed event: a start time, a chain of follow-up delays (0 = a
#: zero-delay reschedule joining the tail of its own timestamp), and
#: which scheduled event (seed or follow-up, by index modulo the count
#: so far) its callback cancels, if any.
_PLANS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=40),
              st.lists(st.sampled_from([0, 0, 1, 7]), max_size=3),
              st.none() | st.integers(min_value=0, max_value=60)),
    min_size=1, max_size=24)


def _replay_plan(sim, plan):
    """Run one plan; the log is the observable execution order."""
    log = []
    handles = []

    def make_callback(tag, follow, target):
        def callback():
            log.append((sim.now_ns, tag))
            if target is not None:
                handles[target % len(handles)].cancel()
            for depth, delay in enumerate(follow):
                handles.append(sim.schedule(
                    delay, make_callback((tag, depth), (), None)))
        return callback

    for index, (start, follow, target) in enumerate(plan):
        handles.append(sim.schedule_at(
            start, make_callback(index, follow, target)))
    sim.run()
    return log


@settings(deadline=None, max_examples=200)
@given(plan=_PLANS)
def test_callback_reschedules_and_cancels_match_reference(plan):
    """Zero-delay reschedules and cancellation from inside callbacks."""
    assert _replay_plan(Simulator(), plan) == \
        _replay_plan(ReferenceSimulator(), plan)

