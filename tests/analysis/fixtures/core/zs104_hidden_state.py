"""ZS104 fixture: module-level mutable globals in simulator scope."""

_CACHE = {}  # flagged: mutable dict
REGISTRY = []  # flagged: mutable list
TUNING = dict(alpha=1, beta=2)  # flagged: dict() constructor
SEEN = set()  # flagged: mutable set
