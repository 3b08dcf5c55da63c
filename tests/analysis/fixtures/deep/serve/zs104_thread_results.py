"""ZS104 fixture: serve code collecting thread results in module state."""

import threading

RESULTS = []  # flagged: every worker thread appends to it


def worker(n):
    RESULTS.append(n)


def fanout():
    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
