from repro.simkit import Event


def event_at(sim, delay):
    """A bare event queued ``delay`` from now at normal priority."""
    ev = Event(sim)
    sim.schedule(ev, delay=delay)
    return ev


def cancel(event):
    """Mark a queued event dead, the flag ``Timer.cancel`` sets: the
    kernel drops its heap entry when it surfaces."""
    event.cancelled = True
