"""ZS104 clean twin: thread results flow through parameters."""

import threading


def worker(n, out):
    out[n] = n * n  # clean: parameter slot is the sanctioned channel


def fanout():
    out = [None] * 4
    threads = [
        threading.Thread(target=worker, args=(i, out)) for i in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return out
