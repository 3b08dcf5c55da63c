"""ZScope metrics: counters, gauges, and streaming histograms.

A dependency-free metrics registry with hierarchical dot-separated
names (``l2.bank3.walk.tag_reads``). Components *register* their
counters instead of keeping ad-hoc integer attributes, so any run can
be snapshotted, rendered, or exported as JSON without per-experiment
plumbing.

Design constraints, in order:

1. **Hot-path cost.** A counter increment must cost what the old
   ``self.stats.hits += 1`` attribute bump cost. :class:`Counter`
   therefore exposes a public ``value`` attribute — call sites cache
   the counter object once and do ``counter.value += 1``; there is no
   method call or dict lookup per event.
2. **Zero dependencies.** Standard library only.
3. **Hierarchy without copies.** :meth:`MetricsRegistry.scoped` returns
   a prefixed *view* over the same store, so ``registry.scoped("l2")``
   and the root registry always agree.

:class:`RegistryStats` adapts the registry to the repo's established
``cache.stats.hits`` surface: subclasses declare their counter fields
and keep working as plain attribute bags while every field is backed
by a registered :class:`Counter`.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Any, ClassVar, Iterator, Optional, Sequence, Union


def sanitize_component(text: str) -> str:
    """Make an arbitrary label safe as a metric-name component.

    Replaces every character outside ``[A-Za-z0-9_-]`` (notably ``.``,
    ``/`` and spaces, which appear in design labels like ``Z4/16``)
    with ``_`` so hierarchical names stay unambiguous.
    """
    return "".join(
        ch if (ch.isalnum() or ch in "_-") else "_" for ch in text
    )


class Counter:
    """A monotonic (by convention) integer/float counter.

    ``value`` is deliberately a public attribute: hot paths cache the
    counter and increment ``counter.value`` directly, matching the cost
    of the attribute counters this class replaces.
    """

    kind = "counter"
    __slots__ = ("name", "value")

    def __init__(self, name: str, value: Union[int, float] = 0) -> None:
        self.name = name
        self.value = value

    def inc(self, amount: Union[int, float] = 1) -> None:
        """Add ``amount`` (convenience; hot paths touch ``value``)."""
        self.value += amount

    def snapshot_value(self) -> Union[int, float]:
        """Current value (the snapshot representation of a counter)."""
        return self.value

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value!r})"


class Gauge:
    """A point-in-time value (occupancy, configured geometry, ...)."""

    kind = "gauge"
    __slots__ = ("name", "value")

    def __init__(self, name: str, value: Union[int, float] = 0) -> None:
        self.name = name
        self.value = value

    def set(self, value: Union[int, float]) -> None:
        """Record the new current value."""
        self.value = value

    def snapshot_value(self) -> Union[int, float]:
        """Current value (the snapshot representation of a gauge)."""
        return self.value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value!r})"


class Histogram:
    """Fixed-bucket streaming histogram.

    ``bounds`` are the inclusive upper edges of the first
    ``len(bounds)`` buckets; one overflow bucket catches everything
    above the last edge. Count, sum, min and max are tracked exactly,
    so means are exact even though the distribution is bucketed.
    """

    kind = "histogram"
    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, bounds: Sequence[float]) -> None:
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        edges = list(bounds)
        if edges != sorted(edges):
            raise ValueError(f"bucket bounds must be sorted, got {edges}")
        self.name = name
        self.bounds: list[float] = edges
        self.counts: list[int] = [0] * (len(edges) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, x: float) -> None:
        """Record one sample."""
        self.counts[bisect_left(self.bounds, x)] += 1
        self.count += 1
        self.total += x
        if self.min is None or x < self.min:
            self.min = x
        if self.max is None or x > self.max:
            self.max = x

    @property
    def mean(self) -> float:
        """Exact mean of every observed sample (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def cdf(self) -> list[tuple[float, float]]:
        """``(upper_edge, cumulative_fraction)`` per bucket (no overflow)."""
        if not self.count:
            return [(b, 0.0) for b in self.bounds]
        out = []
        running = 0
        for edge, c in zip(self.bounds, self.counts):
            running += c
            out.append((edge, running / self.count))
        return out

    def snapshot_value(self) -> dict[str, Any]:
        """Summary dict: count/sum/min/max/mean plus the bucket counts."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": [
                {"le": edge, "count": c}
                for edge, c in zip(self.bounds, self.counts)
            ]
            + [{"le": None, "count": self.counts[-1]}],
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count})"


class IntHistogram:
    """Dense histogram over small non-negative integers (walk levels).

    The counts list grows on demand; index ``i`` is the number of
    observations equal to ``i``. This is the registry-backed form of
    the old ``WalkStats.level_hist`` list.
    """

    kind = "int_histogram"
    __slots__ = ("name", "counts")

    def __init__(self, name: str) -> None:
        self.name = name
        self.counts: list[int] = []

    def observe(self, value: int) -> None:
        """Record one sample (``value >= 0``)."""
        if value < 0:
            raise ValueError(f"IntHistogram takes values >= 0, got {value}")
        while len(self.counts) <= value:
            self.counts.append(0)
        self.counts[value] += 1

    def add_counts(self, counts: Sequence[int]) -> None:
        """Merge another dense counts list into this one."""
        while len(self.counts) < len(counts):
            self.counts.append(0)
        for i, c in enumerate(counts):
            self.counts[i] += c

    @property
    def count(self) -> int:
        """Total number of observations."""
        return sum(self.counts)

    def snapshot_value(self) -> dict[str, Any]:
        """Summary dict: total count plus the dense per-value counts."""
        return {"count": self.count, "counts": list(self.counts)}

    def __repr__(self) -> str:
        return f"IntHistogram({self.name!r}, counts={self.counts})"


#: every metric type the registry can hold
Metric = Union[Counter, Gauge, Histogram, IntHistogram]


class MetricsRegistry:
    """Hierarchical metric store with prefixed views.

    The root registry owns a flat ``name -> metric`` dict;
    :meth:`scoped` returns a view sharing that dict under a name
    prefix, so a component can be handed ``registry.scoped("l2.bank3")``
    and register ``walk.tag_reads`` without knowing where it lives.
    Registration is idempotent: asking for an existing name returns the
    existing metric (and raises if the kind differs).
    """

    __slots__ = ("_store", "_prefix")

    def __init__(
        self,
        _store: Optional[dict[str, Metric]] = None,
        _prefix: str = "",
    ) -> None:
        self._store: dict[str, Metric] = _store if _store is not None else {}
        self._prefix = _prefix

    # -- naming ------------------------------------------------------------
    def _full(self, name: str) -> str:
        if not name:
            raise ValueError("metric name must be non-empty")
        return f"{self._prefix}.{name}" if self._prefix else name

    def scoped(self, prefix: str) -> "MetricsRegistry":
        """A view over the same store under ``<own prefix>.<prefix>``."""
        return MetricsRegistry(self._store, self._full(prefix))

    # -- registration ------------------------------------------------------
    def _register(self, name: str, metric: Metric) -> Metric:
        full = metric.name
        existing = self._store.get(full)
        if existing is not None:
            if type(existing) is not type(metric):
                raise TypeError(
                    f"metric {full!r} already registered as "
                    f"{type(existing).__name__}, not {type(metric).__name__}"
                )
            return existing
        self._store[full] = metric
        return metric

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``<prefix>.<name>``."""
        metric = self._register(name, Counter(self._full(name)))
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``<prefix>.<name>``."""
        metric = self._register(name, Gauge(self._full(name)))
        assert isinstance(metric, Gauge)
        return metric

    def histogram(self, name: str, bounds: Sequence[float]) -> Histogram:
        """Get or create a fixed-bucket histogram ``<prefix>.<name>``."""
        metric = self._register(name, Histogram(self._full(name), bounds))
        assert isinstance(metric, Histogram)
        return metric

    def int_histogram(self, name: str) -> IntHistogram:
        """Get or create a dense small-int histogram ``<prefix>.<name>``."""
        metric = self._register(name, IntHistogram(self._full(name)))
        assert isinstance(metric, IntHistogram)
        return metric

    # -- queries -----------------------------------------------------------
    def _in_scope(self, full_name: str) -> bool:
        if not self._prefix:
            return True
        return full_name.startswith(self._prefix + ".")

    def get(self, name: str) -> Optional[Metric]:
        """The metric registered as ``<prefix>.<name>``, or None."""
        return self._store.get(self._full(name))

    def names(self) -> list[str]:
        """Sorted full names of every metric under this view's prefix."""
        return sorted(n for n in self._store if self._in_scope(n))

    def __iter__(self) -> Iterator[Metric]:
        for name in self.names():
            yield self._store[name]

    def __len__(self) -> int:
        return len(self.names())

    def sum_counters(self, suffix: str) -> Union[int, float]:
        """Sum every in-scope counter whose name ends with ``.suffix``.

        The aggregation behind thin views like ``BankedL2.hits``:
        ``l2_scope.sum_counters("hits")`` adds ``l2.bank0.hits``,
        ``l2.bank1.hits``, ... without the banks knowing about it.
        """
        tail = "." + suffix
        return sum(
            m.value
            for m in self
            if isinstance(m, Counter) and m.name.endswith(tail)
        )

    # -- merging -----------------------------------------------------------
    def merge_snapshot(self, snapshot: dict[str, Any]) -> None:
        """Merge a :meth:`snapshot` dict into this view, additively.

        The deterministic-merge half of the parallel sweep engine: each
        worker process runs under a private registry, snapshots it, and
        the parent folds the snapshots back in. Names are re-rooted
        under this view's prefix. Merge semantics per metric kind:

        - scalar values add into a :class:`Counter` (unless the name is
          already registered as a :class:`Gauge`, which is *set* — a
          gauge is a point-in-time reading, not a total);
        - fixed-bucket histogram summaries add bucket counts, count and
          sum, and fold min/max (bucket bounds must match);
        - dense int-histogram summaries add their counts lists.

        Merging is order-independent (counters and histograms add),
        which is what makes the parallel sweep's metrics reproducible
        regardless of worker scheduling.
        """
        for name, value in snapshot.items():
            existing = self._store.get(self._full(name))
            if isinstance(value, bool):
                raise ValueError(f"unmergeable snapshot entry {name!r}: {value!r}")
            if isinstance(value, (int, float)):
                if isinstance(existing, Gauge):
                    existing.value = value
                else:
                    self.counter(name).value += value
            elif isinstance(value, dict) and "buckets" in value:
                bounds = [
                    b["le"] for b in value["buckets"] if b["le"] is not None
                ]
                hist = self.histogram(name, bounds)
                if hist.bounds != bounds:
                    raise ValueError(
                        f"histogram {self._full(name)!r} bucket bounds "
                        f"{hist.bounds} do not match snapshot's {bounds}"
                    )
                for i, bucket in enumerate(value["buckets"]):
                    hist.counts[i] += bucket["count"]
                hist.count += value["count"]
                hist.total += value["sum"]
                for bound_attr, pick in (("min", min), ("max", max)):
                    theirs = value.get(bound_attr)
                    if theirs is None:
                        continue
                    mine = getattr(hist, bound_attr)
                    setattr(
                        hist,
                        bound_attr,
                        theirs if mine is None else pick(mine, theirs),
                    )
            elif isinstance(value, dict) and "counts" in value:
                self.int_histogram(name).add_counts(value["counts"])
            else:
                raise ValueError(
                    f"unmergeable snapshot entry {name!r}: {value!r}"
                )

    # -- export ------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Flat ``full-name -> snapshot value`` dict, sorted by name."""
        return {
            name: self._store[name].snapshot_value() for name in self.names()
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """The snapshot as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def render_text(self) -> str:
        """Aligned human-readable snapshot, one metric per line."""
        lines = []
        names = self.names()
        width = max((len(n) for n in names), default=0)
        for name in names:
            metric = self._store[name]
            value = metric.snapshot_value()
            if isinstance(value, dict):
                body = "  ".join(
                    f"{k}={v}"
                    for k, v in value.items()
                    if k not in ("buckets", "counts")
                )
                extra = value.get("counts")
                if extra is not None:
                    body += f"  counts={extra}"
            else:
                body = str(value)
            lines.append(f"{name:<{width}}  {body}")
        return "\n".join(lines)


class RegistryStats:
    """Attribute-style stats facade over registered counters.

    Subclasses declare ``_COUNTER_FIELDS``; each field becomes a
    :class:`Counter` in the backing registry while reads and writes of
    ``stats.<field>`` keep working exactly as they did when these were
    dataclass ints — existing tests and the energy model don't change.
    Hot paths should not go through the facade: grab the underlying
    counter objects once via :meth:`counters` and bump ``.value``.
    """

    _COUNTER_FIELDS: ClassVar[tuple[str, ...]] = ()

    registry: MetricsRegistry

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        object.__setattr__(
            self, "registry", registry if registry is not None else MetricsRegistry()
        )
        object.__setattr__(
            self,
            "_c",
            {f: self.registry.counter(f) for f in self._COUNTER_FIELDS},
        )

    def counters(self) -> dict[str, Counter]:
        """field name -> backing counter (cache these on hot paths)."""
        c: dict[str, Counter] = self.__dict__["_c"]
        return c

    def as_dict(self) -> dict[str, Union[int, float]]:
        """Current counter values keyed by field name."""
        return {name: c.value for name, c in self.counters().items()}

    def merge_counters(self, other: "RegistryStats") -> None:
        """Add ``other``'s counter values into this facade's counters."""
        mine = self.counters()
        for name, c in other.counters().items():
            mine[name].value += c.value

    def __getattr__(self, name: str) -> Union[int, float]:
        if name.startswith("_"):
            raise AttributeError(name)
        try:
            counter: Counter = self.__dict__["_c"][name]
        except KeyError:
            raise AttributeError(
                f"{type(self).__name__} has no counter {name!r}"
            ) from None
        return counter.value

    def __setattr__(self, name: str, value: Any) -> None:
        c = self.__dict__.get("_c")
        if c is not None and name in c:
            c[name].value = value
        else:
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"{type(self).__name__}({body})"
