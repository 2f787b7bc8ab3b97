"""Per-request latency attribution ("blame") ledgers.

Every completed request can carry a :class:`RequestLedger` that splits
its end-to-end latency into named stages — where did the nanoseconds go?
The paper's headline claim is causal (checkpointing *causes* tail
inflation; in-storage remap removes the cause), and the ledger makes the
cause measurable per request: "p99 is 1.81x because 72% of tail time is
checkpoint-induced stall", not just "p99 is 1.81x".

Design constraints:

* **Exact conservation.**  Attributed nanoseconds sum *exactly* to the
  request's end-to-end latency in simulated time.  This works because
  the simulator is a discrete-event system with zero-delay event
  resolution: a window measured by the waiter around ``yield event``
  equals the producer-side window to the nanosecond.  Each charge is a
  measured wall-clock window taken sequentially inside the request's
  own process (windows tile without overlap); whatever is not measured
  becomes the ``host_cpu`` residual at :meth:`RequestLedger.finalize`,
  and a *negative* residual (over-attribution) is a hard error.
* **Zero overhead when disabled.**  Every instrumentation site guards
  on ``blame is not None``; a disabled run allocates nothing and reads
  no clocks.  Even when enabled, blame only *measures* existing windows
  — it adds no yields and never changes simulated time, so counter
  snapshots stay byte-identical either way (CI-asserted).

Every window is one :meth:`StageClock.lap`.  A :class:`RequestLedger`
is a stage clock; so is the device-side breakdown a blamed submitter
hangs on its command (``command.blame``), which :func:`fold_completion`
folds back into the ledger — into every batch member's ledger for a
journal group commit, since they all waited the identical window.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import SimulationError


class BlameError(SimulationError):
    """Attribution accounting went wrong (over-attributed a window)."""


CATEGORIES = (
    "admission",           # front-door admission wait / shed decision
    "ckpt_freeze_stall",   # engine query gate + journal rotation wait
    "journal_queue",       # group-commit gathering + committer backlog
    "journal_full_stall",  # journal half full, waiting on a checkpoint
    "journal_commit",      # journal txn device write (host-side residual)
    "repl_ship",           # semi-sync wait for the replication shipper
    "ckpt_interference",   # device admission wait behind checkpoint cmds
    "ctrl_queue",          # device admission wait (no checkpoint active)
    "ctrl_bus",            # host-interface command overhead + transfers
    "ctrl_cpu",            # embedded-CPU service + controller residual
    "coalescer",           # write-coalescer merge bookkeeping
    "ftl_map",             # map-cache touches, mapping updates, LPN locks
    "gc_stall",            # foreground GC stall on the write path
    "flash_read",          # flash page reads (incl. staged-read service)
    "flash_program",       # write-buffer backpressure from page programs
    "media_retry",         # failed command attempts + retry backoff
    "host_cpu",            # engine CPU work + unattributed residual
)
"""The stage taxonomy, in pipeline order (see DESIGN.md §15)."""

CKPT_FAMILY = frozenset(
    ("ckpt_freeze_stall", "journal_full_stall", "ckpt_interference"))
"""Stages whose time exists *because* a checkpoint is (or needs to be)
running — the checkpoint-attributable share of a request's latency."""

RESIDUAL = "host_cpu"
"""Category absorbing the unmeasured remainder at finalize time."""

ADMISSION = "admission"
"""Stage charged for time spent queued at (or shed by) the front-door
admission controller, before the engine ever sees the request."""


class StageClock:
    """Lap timer over consecutive windows: ``charges`` maps stage to ns,
    ``mark`` is where the next window starts (a ``__slots__`` cursor)."""

    __slots__ = ("sim", "charges", "mark", "busy")

    def __init__(self, sim: Any, mark: Optional[int] = None) -> None:
        self.sim = sim
        self.charges: Dict[str, int] = {}
        self.mark: int = sim.now if mark is None else mark
        self.busy = 0  # checkpoint busy-clock reading at mark_busy()

    def charge(self, category: str, ns: int) -> None:
        """Attribute ``ns`` nanoseconds to ``category`` (mark unmoved)."""
        if ns > 0:
            self.charges[category] = self.charges.get(category, 0) + ns

    def lap(self, category: str) -> None:
        """Charge ``now - mark`` to ``category`` and move the mark to now."""
        now = self.sim.now
        ns = now - self.mark
        self.mark = now
        if ns > 0:
            charges = self.charges
            charges[category] = charges.get(category, 0) + ns

    def skip(self) -> None:
        """Move the mark to now, leaving the window to the residual."""
        self.mark = self.sim.now

    def mark_busy(self, array: Any) -> None:
        """Start a flash wait now, reading the array's checkpoint busy
        clock for :meth:`lap_split`."""
        self.mark = self.sim.now
        self.busy = array.ckpt_busy_ns()

    def lap_split(self, category: str, array: Any) -> None:
        """Lap a flash wait opened by :meth:`mark_busy`; the part that
        overlapped checkpoint LUN occupancy (the busy clock's diff) goes
        to ``ckpt_interference``, the rest to ``category``."""
        now = self.sim.now
        window = now - self.mark
        overlap = min(window, array.ckpt_busy_ns() - self.busy)
        self.charge("ckpt_interference", overlap)
        self.charge(category, window - overlap)
        self.mark = now

    def save(self) -> Tuple[Dict[str, int], int]:
        """A restore point for :meth:`relap`."""
        return dict(self.charges), self.mark

    def relap(self, saved: Tuple[Dict[str, int], int],
              category: str) -> None:
        """Drop every charge since ``saved`` and lap the whole window
        since then to ``category`` (a failed attempt is all retry time)."""
        self.charges, self.mark = saved
        self.lap(category)


class RequestLedger(StageClock):
    """One request's ledger; ``since`` (default now) is its arrival."""

    __slots__ = ("op", "key", "during_ckpt", "span_id", "total_ns")

    def __init__(self, sim: Any, op: str, key: int,
                 during_ckpt: bool = False, span_id: Optional[int] = None,
                 since: Optional[int] = None) -> None:
        StageClock.__init__(self, sim, since)
        self.op = op
        self.key = key
        self.during_ckpt = during_ckpt
        self.span_id = span_id
        self.total_ns: int = 0

    def finalize(self, total_ns: int) -> None:
        """Close the ledger against the measured end-to-end latency.

        The unattributed remainder goes to :data:`RESIDUAL` (engine CPU
        windows are deliberately left unmeasured — they are the residual
        by construction).  A negative remainder means some window was
        double-charged; that is an accounting bug, so it raises instead
        of clamping.
        """
        charged = sum(self.charges.values())
        residual = total_ns - charged
        if residual < 0:
            raise BlameError(
                f"over-attributed request (op={self.op} key={self.key}): "
                f"charged {charged} ns > total {total_ns} ns "
                f"({self.charges})")
        if residual:
            self.charge(RESIDUAL, residual)
        self.total_ns = total_ns

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"RequestLedger(op={self.op!r}, key={self.key}, "
                f"total_ns={self.total_ns}, charges={self.charges})")


def fold_completion(ledger: RequestLedger, device: StageClock,
                    residual_category: str) -> None:
    """Fold a finished command's device clock into ``ledger`` as one lap.

    The window runs from the ledger's mark (the submit instant) to now
    and, with zero-delay event resolution, equals the device-side window
    exactly: device charges beyond it mean a double charge, which
    raises.  The uncovered remainder goes to ``residual_category``.
    """
    now = ledger.sim.now
    window_ns = now - ledger.mark
    charged = 0
    for category, ns in device.charges.items():
        ledger.charge(category, ns)
        charged += ns
    residual = window_ns - charged
    if residual < 0:
        raise BlameError(
            f"device charges {charged} ns exceed wait window {window_ns} "
            f"ns ({device.charges})")
    if residual:
        ledger.charge(residual_category, residual)
    ledger.mark = now


# ----------------------------------------------------------------------
# collection and summaries
# ----------------------------------------------------------------------
BlameRecord = Tuple[int, str, int, bool, Optional[int], Dict[str, int]]
"""``(total_ns, op, key, during_ckpt, span_id, charges)``."""


def _percentile(sorted_totals: Sequence[int], p: float) -> int:
    """Nearest-rank percentile of an ascending total list."""
    if not sorted_totals:
        return 0
    index = min(len(sorted_totals) - 1,
                max(0, int(len(sorted_totals) * p / 100.0)))
    return sorted_totals[index]


def _shares(records: Sequence[BlameRecord]) -> Dict[str, float]:
    """Per-category share of the summed latency of ``records``."""
    totals: Dict[str, int] = {}
    grand = 0
    for total_ns, _op, _key, _ckpt, _span, charges in records:
        grand += total_ns
        for category, ns in charges.items():
            totals[category] = totals.get(category, 0) + ns
    if grand <= 0:
        return {}
    return {category: ns / grand for category, ns in totals.items()}


@dataclass
class TailProfile:
    """Blame conditioned on the slowest requests vs. the whole run."""

    p: float
    threshold_ns: int
    tail_requests: int
    all_requests: int
    tail_shares: Dict[str, float]
    all_shares: Dict[str, float]

    @property
    def ckpt_tail_share(self) -> float:
        """Checkpoint-attributable fraction of tail-request time."""
        return sum(share for category, share in self.tail_shares.items()
                   if category in CKPT_FAMILY)

    def dominant_tail_category(self) -> str:
        """The stage that costs the tail the most ('' when empty)."""
        if not self.tail_shares:
            return ""
        return max(self.tail_shares.items(), key=lambda item: item[1])[0]


class BlameCollector:
    """All finalized ledgers of one tenant (or one whole run).

    The hot path is a single tuple append; every summary (totals,
    histograms, tail profile, exemplars) is derived lazily at report
    time so an enabled run stays cheap.
    """

    def __init__(self, tenant: str = "tenant0",
                 exemplar_k: int = 8) -> None:
        self.tenant = tenant
        self.exemplar_k = exemplar_k
        self.records: List[BlameRecord] = []

    def record(self, ledger: RequestLedger) -> None:
        """Absorb one finalized ledger."""
        self.records.append((ledger.total_ns, ledger.op, ledger.key,
                             ledger.during_ckpt, ledger.span_id,
                             ledger.charges))

    # -- summaries -------------------------------------------------------
    @property
    def requests(self) -> int:
        """Finalized requests recorded."""
        return len(self.records)

    def total_ns(self) -> int:
        """Summed end-to-end latency of every recorded request."""
        return sum(record[0] for record in self.records)

    def category_totals(self) -> Dict[str, int]:
        """Summed nanoseconds per category across all requests."""
        totals: Dict[str, int] = {}
        for _t, _op, _key, _ckpt, _span, charges in self.records:
            for category, ns in charges.items():
                totals[category] = totals.get(category, 0) + ns
        return totals

    def tail_profile(self, p: float = 99.0) -> TailProfile:
        """Blame shares of requests strictly above the ``p`` percentile,
        against the shares of the full population."""
        ordered = sorted(record[0] for record in self.records)
        threshold = _percentile(ordered, p)
        tail = [record for record in self.records if record[0] > threshold]
        return TailProfile(p=p, threshold_ns=threshold,
                           tail_requests=len(tail),
                           all_requests=len(self.records),
                           tail_shares=_shares(tail),
                           all_shares=_shares(self.records))

    def exemplars(self, k: Optional[int] = None) -> List[BlameRecord]:
        """The worst-``k`` requests by end-to-end latency."""
        k = self.exemplar_k if k is None else k
        return heapq.nlargest(k, self.records, key=lambda record: record[0])

    def histogram(self, category: str) -> Dict[int, int]:
        """Log2 latency histogram of one category's per-request charges.

        Keys are bucket floors in ns (``1 << (bit_length - 1)``).
        """
        buckets: Dict[int, int] = {}
        for _t, _op, _key, _ckpt, _span, charges in self.records:
            ns = charges.get(category, 0)
            if ns <= 0:
                continue
            floor = 1 << (ns.bit_length() - 1)
            buckets[floor] = buckets.get(floor, 0) + 1
        return dict(sorted(buckets.items()))

    def histograms(self) -> Dict[str, Dict[int, int]]:
        """Per-category log2 histograms (categories actually charged)."""
        return {category: self.histogram(category)
                for category in CATEGORIES
                if any(charges.get(category)
                       for *_rest, charges in self.records)}

    def dominant_category(self) -> str:
        """The single largest category across all requests ('' if none)."""
        totals = self.category_totals()
        if not totals:
            return ""
        return max(totals.items(), key=lambda item: item[1])[0]


@dataclass
class BlameRunReport:
    """Every tenant's blame collector from one finished run."""

    label: str
    tenants: List[Tuple[str, BlameCollector]] = field(default_factory=list)

    def collector(self, name: str) -> BlameCollector:
        """The collector of tenant ``name``."""
        for tenant, collector in self.tenants:
            if tenant == name:
                return collector
        raise KeyError(f"no blame collector for tenant {name!r}")

    def aggregate(self) -> BlameCollector:
        """All tenants' records pooled into one collector."""
        pooled = BlameCollector(tenant="aggregate")
        for _name, collector in self.tenants:
            pooled.records.extend(collector.records)
        return pooled

    @property
    def requests(self) -> int:
        """Finalized requests across every tenant."""
        return sum(collector.requests for _n, collector in self.tenants)

    def ckpt_tail_share(self, p: float = 99.0) -> float:
        """Checkpoint-attributable share of tail time, pooled."""
        return self.aggregate().tail_profile(p).ckpt_tail_share


# ----------------------------------------------------------------------
# CLI renderers
# ----------------------------------------------------------------------
def blame_table(report: BlameRunReport, title: str = "") -> str:
    """Per-tenant, per-category totals and shares."""
    from repro.analysis.tables import format_table
    rows = []
    for tenant, collector in report.tenants:
        totals = collector.category_totals()
        grand = collector.total_ns()
        for category in CATEGORIES:
            ns = totals.get(category, 0)
            if not ns:
                continue
            rows.append([tenant, category, round(ns / 1e6, 3),
                         round(ns / grand * 100.0, 2) if grand else 0.0])
    return format_table(
        ["tenant", "stage", "total_ms", "share_%"], rows,
        title=title or f"blame: {report.requests} requests "
                       f"({report.label})")


def tail_table(report: BlameRunReport, p: float = 99.0,
               title: str = "") -> str:
    """Tail (>p99) blame shares vs. the whole population, per tenant."""
    from repro.analysis.tables import format_table
    rows = []
    for tenant, collector in report.tenants:
        profile = collector.tail_profile(p)
        for category in CATEGORIES:
            tail = profile.tail_shares.get(category, 0.0)
            everyone = profile.all_shares.get(category, 0.0)
            if not tail and not everyone:
                continue
            rows.append([tenant, category, round(tail * 100.0, 2),
                         round(everyone * 100.0, 2)])
    return format_table(
        ["tenant", "stage", f">p{p:g}_share_%", "all_share_%"], rows,
        title=title or f"blame: tail profile above p{p:g}")


def exemplar_table(report: BlameRunReport, k: Optional[int] = None,
                   title: str = "") -> str:
    """Worst-K requests with their dominant stages and trace span ids."""
    from repro.analysis.tables import format_table
    rows = []
    for tenant, collector in report.tenants:
        for total_ns, op, key, during_ckpt, span_id, charges \
                in collector.exemplars(k):
            worst = sorted(charges.items(), key=lambda item: -item[1])[:3]
            rows.append([
                tenant, op, key, round(total_ns / 1e3, 1),
                "yes" if during_ckpt else "no",
                span_id if span_id is not None else "-",
                " ".join(f"{category}={ns // 1000}us"
                         for category, ns in worst)])
    return format_table(
        ["tenant", "op", "key", "total_us", "ckpt", "span", "top stages"],
        rows, title=title or "blame: worst-request exemplars")
