"""Fixture: SIM007 — a recovery path blocking on a bare event, unguarded."""

sim = get_simulator()  # noqa: F821


class Driver:
    def _retry_submit(self):
        yield self._cq_space  # HAZARD SIM007


class GuardedDriver:
    # near miss: this class also runs a watchdog sweeper from its poll
    # loop, so its retry wait is swept on timeout (the SPDK driver pattern)
    def _retry_submit(self):
        yield self._cq_room

    def _poll(self):
        while True:
            self._scan_timeouts()
            yield sim.timeout(400)

    def _scan_timeouts(self):
        pass


class DormantWatchdogDriver:
    # the watchdog is defined but nothing calls or starts it, so it
    # sweeps nothing and does not exempt the retry wait
    def _retry_submit(self):
        yield self._sq_room  # HAZARD SIM007

    def _scan_timeouts(self):
        pass
