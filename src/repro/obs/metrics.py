"""The metrics registry: counters, gauges, log-spaced histograms.

Production-scale checking needs aggregate visibility over millions of
crossings, which means the instrument itself must be cheap and out of
the way:

- **Per-thread shards.**  A shard holds the calling thread's keyed
  counter and histogram cells and its *blocks*: many series laid out
  as parallel lists indexed by position (:class:`BlockLayout`), so one
  allocation covers a whole table of sites.  Shards are created on
  first touch and registered under a lock once.  A hot-path increment
  is ``cell[0] += 1`` or ``calls[17] += 1`` on a pre-bound list — no
  lock, no allocation, no dict lookup.  Shards are merged only at
  :meth:`MetricsRegistry.snapshot` time, blocks expanded into the same
  series a cell per key would give.
- **Fixed log-spaced bins.**  Histograms bucket by ``value.bit_length()``
  — power-of-two bin edges from 1 ns up — so observing a duration is a
  bit-length and two list increments, and every registry agrees on bin
  edges without configuration.
- **Deterministic snapshots.**  A snapshot is a pure function of the
  recorded values: series are keyed by a canonical flattened name
  (labels sorted), shard merge order never shows through (counters and
  histogram cells merge by summation), and gauges are registry-global
  (set rarely, from publish paths, under the registry lock).

Labels are free-form key/value pairs; the conventional keys across the
repo are ``subsystem``, ``machine``, ``function``, ``direction``, and
``substrate``.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Tuple

#: Histogram bin count: bin ``i`` holds values with ``bit_length() == i``,
#: i.e. upper edge ``2**i - 1`` ns; the last bin is the overflow bin.
#: 63 regular bins cover everything below ~292 years.
HISTOGRAM_BINS = 64

# Cell layouts (plain lists so fused entries mutate them directly).
_KIND_COUNTER = "c"
_KIND_HISTOGRAM = "h"


def label_key(labels: Dict[str, object]) -> Tuple[Tuple[str, str], ...]:
    """Canonical (sorted, stringified) identity of one label set."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def counter_key(name: str, **labels) -> tuple:
    """Prepared key of one counter series (see :meth:`MetricsRegistry.cell`)."""
    return (_KIND_COUNTER, name, label_key(labels))


def histogram_key(name: str, **labels) -> tuple:
    """Prepared key of one histogram series (see :meth:`MetricsRegistry.cell`)."""
    return (_KIND_HISTOGRAM, name, label_key(labels))


def flatten(name: str, key: Tuple[Tuple[str, str], ...]) -> str:
    """The canonical flattened series name, Prometheus-style."""
    if not key:
        return name
    return "{}{{{}}}".format(
        name, ",".join('{}="{}"'.format(k, v) for k, v in key)
    )


class Counter:
    """A monotonically increasing count.  ``cell[0]`` is the value."""

    __slots__ = ("cell",)

    def __init__(self, cell: List[int]):
        self.cell = cell

    def inc(self, n: int = 1) -> None:
        self.cell[0] += n

    @property
    def value(self) -> int:
        return self.cell[0]


class Gauge:
    """A point-in-time value (registry-global, publish-path only)."""

    __slots__ = ("cell",)

    def __init__(self, cell: List[float]):
        self.cell = cell

    def set(self, value) -> None:
        self.cell[0] = value

    @property
    def value(self):
        return self.cell[0]


class Histogram:
    """Fixed log-spaced bins: ``cell = [count, sum, bins list]``."""

    __slots__ = ("cell",)

    def __init__(self, cell):
        self.cell = cell

    def observe(self, value: int) -> None:
        cell = self.cell
        cell[0] += 1
        cell[1] += value
        if value < 0:
            value = 0
        index = value.bit_length()
        if index >= HISTOGRAM_BINS:
            index = HISTOGRAM_BINS - 1
        cell[2][index] += 1

    @property
    def count(self) -> int:
        return self.cell[0]

    @property
    def sum(self) -> int:
        return self.cell[1]


def _new_cell(kind: str):
    if kind == _KIND_COUNTER:
        return [0]
    return [0, 0, [0] * HISTOGRAM_BINS]


def _merge_cell(merged: Dict[tuple, list], key: tuple, cell) -> None:
    """Add one cell into ``merged`` (a copy on the key's first visit)."""
    into = merged.get(key)
    if into is None:
        merged[key] = [
            cell[0], cell[1], list(cell[2])
        ] if key[0] == _KIND_HISTOGRAM else list(cell)
    elif key[0] == _KIND_COUNTER:
        into[0] += cell[0]
    else:
        into[0] += cell[0]
        into[1] += cell[1]
        bins = into[2]
        for i, b in enumerate(cell[2]):
            bins[i] += b


class BlockLayout:
    """Prepared keys of a block of series, indexed by position.

    ``counters`` and ``histograms`` are columns: one prepared key
    (:func:`counter_key`, :func:`histogram_key`) per position, every
    column the same length.  A block (:meth:`MetricsRegistry.block`)
    holds one value list per counter column, then per histogram column
    a count list, a sum list and one flat list of
    :data:`HISTOGRAM_BINS` bins per position: position ``i``'s bin
    ``b`` is ``bins[i * HISTOGRAM_BINS + b]``.  Layouts compare by
    identity, so a caller prepares one and hands it over again.
    """

    __slots__ = ("counters", "histograms", "size")

    def __init__(self, counters, histograms):
        self.counters = tuple(tuple(column) for column in counters)
        self.histograms = tuple(tuple(column) for column in histograms)
        self.size = len((self.counters + self.histograms)[0])

    def _new_block(self) -> List[list]:
        size = self.size
        block = [[0] * size for _ in self.counters]
        for _ in self.histograms:
            block += [[0] * size, [0] * size, [0] * (size * HISTOGRAM_BINS)]
        return block

    def _cells(self, block: List[list]):
        """``(key, cell)`` per series of one block, shaped as keyed cells."""
        for column, values in zip(self.counters, block):
            for key, value in zip(column, values):
                yield key, (value,)
        at = len(self.counters)
        for column in self.histograms:
            counts, sums, bins = block[at:at + 3]
            at += 3
            for i, key in enumerate(column):
                start = i * HISTOGRAM_BINS
                yield key, (
                    counts[i], sums[i], bins[start:start + HISTOGRAM_BINS]
                )


class _Shard:
    """One thread's series: keyed cells and positional blocks."""

    __slots__ = ("cells", "blocks")

    def __init__(self):
        self.cells: Dict[tuple, list] = {}
        self.blocks: Dict[BlockLayout, List[list]] = {}


class MetricsRegistry:
    """Sharded-by-thread metric store with deterministic merge."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        #: Every shard ever created, in creation order (merge sums, so
        #: order never affects a snapshot).
        self._shards: List[_Shard] = []
        #: Gauges are registry-global: publish paths set them rarely.
        self._gauges: Dict[tuple, List[float]] = {}

    # -- shard plumbing --------------------------------------------------

    def _shard(self) -> _Shard:
        shard = getattr(self._local, "shard", None)
        if shard is None:
            shard = _Shard()
            with self._lock:
                self._shards.append(shard)
            self._local.shard = shard
        return shard

    def cell(self, key: tuple) -> list:
        """The calling thread's cell for one prepared series key.

        ``key`` comes from :func:`counter_key` or :func:`histogram_key`.
        A caller that creates the same series again and again prepares
        the key once instead of sorting its labels on every call; one
        that creates a whole table of series at once takes a
        :meth:`block` instead.
        """
        cells = self._shard().cells
        cell = cells.get(key)
        if cell is None:
            cell = cells[key] = _new_cell(key[0])
        return cell

    def block(self, layout: BlockLayout) -> List[list]:
        """The calling thread's block for one prepared layout.

        Created at zero on first use and reused after that, as
        :meth:`cell` reuses a cell: two callers in one thread that hand
        over the same layout share one block.  A snapshot shows each of
        the layout's series, crossed or not.
        """
        blocks = self._shard().blocks
        block = blocks.get(layout)
        if block is None:
            block = blocks[layout] = layout._new_block()
        return block

    # -- handles ---------------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        """The calling thread's counter cell for one series."""
        return Counter(self.cell(counter_key(name, **labels)))

    def histogram(self, name: str, **labels) -> Histogram:
        return Histogram(self.cell(histogram_key(name, **labels)))

    def gauge(self, name: str, **labels) -> Gauge:
        key = (name, label_key(labels))
        with self._lock:
            cell = self._gauges.get(key)
            if cell is None:
                cell = self._gauges[key] = [0.0]
        return Gauge(cell)

    # -- snapshot --------------------------------------------------------

    def snapshot(self) -> Dict[str, dict]:
        """Merge every shard into one deterministic, JSON-safe document.

        Counters sum across shards; histogram counts, sums, and bins sum
        elementwise; gauges report their current value.  Series appear
        under canonical flattened names, so two registries that recorded
        the same values produce byte-identical canonical JSON.
        """
        merged: Dict[tuple, list] = {}
        with self._lock:
            shards = list(self._shards)
            gauges = {key: cell[0] for key, cell in self._gauges.items()}
        for shard in shards:
            # Shard dicts are mutated by their owner thread; values are
            # ints appended in place, so reading concurrently yields a
            # consistent-enough view (snapshots are quiescent-time ops).
            for key, cell in list(shard.cells.items()):
                _merge_cell(merged, key, cell)
            for layout, block in list(shard.blocks.items()):
                for key, cell in layout._cells(block):
                    _merge_cell(merged, key, cell)
        counters: Dict[str, int] = {}
        histograms: Dict[str, dict] = {}
        for (kind, name, key) in sorted(merged):
            cell = merged[(kind, name, key)]
            flat = flatten(name, key)
            if kind == _KIND_COUNTER:
                counters[flat] = cell[0]
            else:
                buckets = {
                    str((1 << i) - 1) if i < HISTOGRAM_BINS - 1 else "+Inf": n
                    for i, n in enumerate(cell[2])
                    if n
                }
                histograms[flat] = {
                    "count": cell[0],
                    "sum": cell[1],
                    "buckets": buckets,
                }
        return {
            "counters": counters,
            "gauges": {
                flatten(name, key): gauges[(name, key)]
                for name, key in sorted(gauges)
            },
            "histograms": histograms,
        }

    def reset(self) -> None:
        """Zero every series (shards stay registered to their threads)."""
        with self._lock:
            for shard in self._shards:
                for key, cell in shard.cells.items():
                    if key[0] == _KIND_COUNTER:
                        cell[0] = 0
                    else:
                        cell[0] = 0
                        cell[1] = 0
                        cell[2][:] = [0] * HISTOGRAM_BINS
                # In place: fused entries hold these very lists.
                for block in shard.blocks.values():
                    for values in block:
                        values[:] = [0] * len(values)
            for cell in self._gauges.values():
                cell[0] = 0.0
