"""Fixture: SIM011 — threads/open fds/direct forks live at a fork point."""

import os
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.sim.snapshot import ScenarioEngine


def adhoc_fork():
    # bypasses the engine's quiesce + thread guard entirely
    pid = os.fork()  # HAZARD SIM011
    return pid


def thread_live_at_fork(setup, branches):
    worker = threading.Thread(target=print)  # HAZARD SIM011
    worker.start()
    return ScenarioEngine(setup).run(branches)


def pool_live_in_with(setup, warm, branches):
    with ThreadPoolExecutor(max_workers=2) as pool:  # HAZARD SIM011
        engine = ScenarioEngine(setup, warm)
        return engine.run(branches)


def open_handle_spans_fork(setup, branches, path):
    log = open(path, "a")  # HAZARD SIM011
    log.write("branching\n")
    return ScenarioEngine(setup).run(branches)
