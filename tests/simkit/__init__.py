from repro.simkit import Event


def event_at(sim, delay):
    """A bare event queued ``delay`` from now at normal priority."""
    ev = Event(sim)
    sim.schedule(ev, delay=delay)
    return ev
