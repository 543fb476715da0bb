"""Fixture: SIM011 near misses — every resource retired before the fork.

Structurally one edit away from the hazards in ``true_positive.py``;
the rule must stay quiet on all of them.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.sim.snapshot import ScenarioEngine


def thread_joined_before_fork(setup, branches):
    worker = threading.Thread(target=print)
    worker.start()
    worker.join()
    return ScenarioEngine(setup).run(branches)


def with_block_closed_before_fork(setup, warm, branches, jobs):
    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(len, jobs))
    engine = ScenarioEngine(setup, warm)
    return engine.run(branches)


def executor_shut_down_before_fork(setup, branches):
    pool = ThreadPoolExecutor(max_workers=2)
    pool.shutdown(wait=True)
    return ScenarioEngine(setup).run(branches)


def open_closed_before_fork(setup, branches, path):
    log = open(path, "a")
    log.write("branching\n")
    log.close()
    return ScenarioEngine(setup).run(branches)


def resource_after_fork_is_fine(setup, branches, path):
    results = ScenarioEngine(setup).run(branches)
    with open(path, "a") as log:
        log.write(str(len(results)))
    return results
