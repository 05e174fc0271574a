"""The observability subsystem: metrics, spans, triage, export, hub.

Structural coverage for ``repro.obs`` — the timing-free half of what
``benchmarks/bench_obs.py`` gates.  Everything here is deterministic:
timing-sensitive assertions run on a :class:`~repro.core.clock.FakeClock`
or assert structure (counts, IDs, ordering), never wall-clock values.
"""

import threading

import pytest

from repro.core.clock import FakeClock
from repro.obs import (
    HISTOGRAM_BINS,
    MetricsRegistry,
    ObsHub,
    SpanBuffer,
    TelemetryTap,
    ViolationTriage,
    as_tap,
    canonical_json,
    diff_snapshots,
    to_prometheus,
    top_sites,
)


class TestMetricsRegistry:
    def test_counter_gauge_histogram_roundtrip(self):
        reg = MetricsRegistry()
        reg.counter("calls", subsystem="pipeline").inc(3)
        reg.gauge("share", subsystem="governor").set(0.25)
        hist = reg.histogram("ns", subsystem="pipeline")
        hist.observe(5)   # bit_length 3
        hist.observe(900)  # bit_length 10
        snap = reg.snapshot()
        assert snap["counters"]['calls{subsystem="pipeline"}'] == 3
        assert snap["gauges"]['share{subsystem="governor"}'] == 0.25
        h = snap["histograms"]['ns{subsystem="pipeline"}']
        assert h["count"] == 2 and h["sum"] == 905
        # bin edges are 2**i - 1: 5 lands in the "7" bucket, 900 in "1023"
        assert h["buckets"] == {"7": 1, "1023": 1}

    def test_histogram_overflow_bin(self):
        reg = MetricsRegistry()
        reg.histogram("ns").observe(1 << 200)
        snap = reg.snapshot()
        assert snap["histograms"]["ns"]["buckets"] == {"+Inf": 1}
        reg.histogram("ns").observe(-5)  # clamps to bin 0
        assert reg.snapshot()["histograms"]["ns"]["buckets"]["0"] == 1

    def test_per_thread_writes_merge_by_summation(self):
        reg = MetricsRegistry()
        reg.counter("calls").inc(10)

        def worker():
            reg.counter("calls").inc(32)
            reg.histogram("ns").observe(7)

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = reg.snapshot()
        assert snap["counters"]["calls"] == 10 + 3 * 32
        assert snap["histograms"]["ns"]["count"] == 3

    def test_labels_canonicalize_and_values_stringify(self):
        reg = MetricsRegistry()
        reg.counter("c", b="2", a="1").inc()
        reg.counter("c", a="1", b=2).inc()  # same series, sorted labels
        assert reg.snapshot()["counters"]['c{a="1",b="2"}'] == 2

    def test_reset_zeroes_but_keeps_series(self):
        reg = MetricsRegistry()
        cell = reg.counter("calls").cell
        cell[0] += 5
        reg.reset()
        assert reg.snapshot()["counters"]["calls"] == 0
        cell[0] += 1  # pre-bound cells survive a reset
        assert reg.snapshot()["counters"]["calls"] == 1

    def test_block_per_thread_expands_into_its_series(self):
        from repro.obs.metrics import BlockLayout, counter_key, histogram_key

        reg = MetricsRegistry()
        layout = BlockLayout(
            counters=(
                [counter_key("c", site="a"), counter_key("c", site="b")],
            ),
            histograms=(
                [histogram_key("h", site="a"), histogram_key("h", site="b")],
            ),
        )
        calls, counts, sums, bins = block = reg.block(layout)
        assert reg.block(layout) is block  # one block per thread and layout
        assert len(bins) == 2 * HISTOGRAM_BINS
        calls[1] += 2
        counts[1] += 1
        sums[1] += 5
        bins[HISTOGRAM_BINS + (5).bit_length()] += 1
        reg.counter("c", site="b").inc()  # a keyed cell of the same series

        def worker():
            reg.block(layout)[0][0] += 4

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        snap = reg.snapshot()
        assert snap["counters"] == {'c{site="a"}': 4, 'c{site="b"}': 3}
        assert snap["histograms"] == {
            'h{site="a"}': {"count": 0, "sum": 0, "buckets": {}},
            'h{site="b"}': {"count": 1, "sum": 5, "buckets": {"7": 1}},
        }
        reg.reset()
        assert reg.block(layout) is block and not any(map(any, block))
        calls[0] += 1  # pre-bound block lists survive a reset
        assert reg.snapshot()["counters"]['c{site="a"}'] == 1


class TestSpanBuffer:
    def test_ring_overwrites_oldest(self):
        buf = SpanBuffer(capacity=4)
        for i in range(6):
            buf.append("F{}".format(i), False, i * 10, i * 10 + 5, 2)
        assert buf.recorded == 6
        kept = buf.spans()
        assert [s.function for s in kept] == ["F2", "F3", "F4", "F5"]
        assert kept[0].duration_ns() == 5
        snap = buf.snapshot()
        assert snap["recorded"] == 6 and snap["kept"] == 4

    def test_reset_in_place_preserves_hook_aliases(self):
        buf = SpanBuffer(capacity=2)
        ring, capacity, count = buf.ring_parts()
        buf.append("F", False, 0, 1, 0)
        buf.reset()
        assert buf.recorded == 0 and buf.spans() == []
        # The fused hooks' aliases still point at the live ring/cell.
        assert ring is buf.ring_parts()[0]
        assert count is buf.ring_parts()[2]

    def test_span_to_json(self):
        buf = SpanBuffer(capacity=2)
        buf.append("NewObject", True, 100, 250, 3, ("abc123",))
        span = buf.spans()[0]
        doc = span.to_json()
        assert doc["duration_ns"] == 150
        assert doc["violations"] == ["abc123"]
        assert doc["native"] is True


class TestViolationTriage:
    def test_entity_ids_scrub_into_one_cluster(self):
        triage = ViolationTriage()
        a = triage.ingest(
            machine="local_ref", error_state="Error: double free",
            message="ref 0xdeadbeef freed twice", function="DeleteLocalRef",
        )
        b = triage.ingest(
            machine="local_ref", error_state="Error: double free",
            message="ref 0xcafe1234 freed twice", function="DeleteLocalRef",
        )
        assert a == b
        assert len(triage.clusters) == 1
        cluster = triage.clusters[a]
        assert cluster.count == 2
        assert cluster.fingerprint == "ref 0x# freed twice"
        assert cluster.example == "ref 0xdeadbeef freed twice"

    def test_different_machines_split_clusters(self):
        triage = ViolationTriage()
        a = triage.ingest(
            machine="local_ref", error_state="E", message="boom"
        )
        b = triage.ingest(
            machine="global_ref", error_state="E", message="boom"
        )
        assert a != b and len(triage.clusters) == 2

    def test_cluster_ids_stable_across_ingestion_order(self):
        lines = [
            "ref 12 freed twice [machine=local_ref, state=Error: double free]"
            " in DeleteLocalRef",
            "ref 99 freed twice [machine=local_ref, state=Error: double free]"
            " in DeleteLocalRef",
            "pending exception [machine=exception_state, state=Error: pending]"
            " in NewObject",
        ]
        forward, backward = ViolationTriage(), ViolationTriage()
        for line in lines:
            forward.ingest_report_line(line)
        for line in reversed(lines):
            backward.ingest_report_line(line)
        f = {c["id"]: c["count"] for c in forward.snapshot()["clusters"]}
        b = {c["id"]: c["count"] for c in backward.snapshot()["clusters"]}
        assert f == b and len(f) == 2

    def test_unparsed_lines_still_cluster(self):
        triage = ViolationTriage()
        triage.ingest_report_line("not a violation report at all")
        (cluster,) = triage.clusters.values()
        assert cluster.machine == "<unparsed>"
        assert triage.total == 1

    def test_top_ranks_by_count_then_id(self):
        triage = ViolationTriage()
        for _ in range(3):
            triage.ingest(machine="m1", error_state="E", message="big")
        triage.ingest(machine="m2", error_state="E", message="small")
        top = triage.top(5)
        assert [c.count for c in top] == [3, 1]


class _StubViolation:
    def __init__(self, machine="local_ref", message="ref 7 freed twice"):
        self.machine = machine
        self.error_state = "Error: double free"
        self.function = "DeleteLocalRef"
        self.args = (message,)


class TestObsHub:
    def test_sample_period_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            ObsHub(sample_period=12)
        with pytest.raises(ValueError):
            ObsHub(sample_period=0)
        assert ObsHub(sample_period=1).sample_period == 1

    def test_on_violation_counts_and_marks(self):
        hub = ObsHub(clock=FakeClock())
        mark = hub.violation_mark()
        cid = hub.on_violation(_StubViolation())
        assert hub.violations_since(mark) == (cid,)
        assert hub.violations_since(hub.violation_mark()) == ()
        snap = hub.snapshot()
        flat = 'ffi_violations_total{machine="local_ref",subsystem="checker"}'
        assert snap["metrics"]["counters"][flat] == 1
        assert snap["triage"]["unique"] == 1

    def test_snapshot_carries_schema_and_sample_period(self):
        hub = ObsHub(clock=FakeClock(), sample_period=4)
        snap = hub.snapshot()
        assert snap["schema"] == 1
        flat = 'obs_sample_period{subsystem="obs"}'
        assert snap["metrics"]["gauges"][flat] == 4

    def test_publish_cache_mirrors_stats(self):
        from repro.core.cache import WRAPPER_CACHE

        hub = ObsHub(clock=FakeClock())
        hub.publish_cache()
        gauges = hub.snapshot()["metrics"]["gauges"]
        for key in WRAPPER_CACHE.stats():
            assert 'wrapper_cache_{}{{subsystem="cache"}}'.format(key) in gauges

    def test_reset_clears_everything(self):
        hub = ObsHub(clock=FakeClock())
        hub.on_violation(_StubViolation())
        hub.spans.append("F", False, 0, 1, 0)
        hub.reset()
        summary = hub.summary()
        assert summary["violations"] == 0
        assert summary["spans_recorded"] == 0
        assert hub.violation_mark() == 0


#: The ``GetVersion`` site's call counter, as a snapshot names it.
GET_VERSION = (
    'ffi_calls_total{direction="native_to_managed",'
    'function="GetVersion",substrate="jni",subsystem="pipeline"}'
)


def _observed_env(sample_period, governor=None):
    """A JNI env whose generated entries carry a telemetry tap."""
    from repro.jinn.agent import JinnAgent
    from repro.jvm import HOTSPOT, JavaVM

    hub = ObsHub(clock=FakeClock(), sample_period=sample_period)
    agent = JinnAgent(telemetry=hub, governor=governor)
    vm = JavaVM(vendor=HOTSPOT, agents=[agent])
    return hub, vm.current_thread.env


def _crossings(hub, function, count):
    """Write ``count`` timed crossings of one JNI site into the hub."""
    labels = {
        "subsystem": "pipeline",
        "substrate": "jni",
        "function": function,
        "direction": "native_to_managed",
    }
    hub.metrics.counter("ffi_calls_total", **labels).inc(count)
    crossing = hub.metrics.histogram("ffi_crossing_ns", **labels)
    for _ in range(count):
        t0 = hub.clock_ns()
        t1 = hub.clock_ns()
        crossing.observe(t1 - t0)
        hub.spans.append(function, False, t0, t1, 0)


class TestTapWiring:
    def test_as_tap_normalizes(self):
        hub = ObsHub(clock=FakeClock())
        tap = as_tap(hub, substrate="jni")
        assert isinstance(tap, TelemetryTap) and tap.hub is hub
        assert as_tap(tap, substrate="jni") is tap
        assert as_tap(None, substrate="jni") is None
        with pytest.raises(TypeError):
            as_tap(object(), substrate="jni")

    def test_closure_hooks_sample_and_record(self):
        from repro.resilience import GovernorPolicy, OverheadGovernor

        # No rebalance: the window is far larger than this workload.
        governor = OverheadGovernor(GovernorPolicy(window=10**6))
        hub, env = _observed_env(sample_period=1, governor=governor)
        for _ in range(3):
            env.GetVersion()
        # Period 2 samples the pair's next crossing out: raw call only.
        governor.fused_binding("GetVersion").period = 2
        env.GetVersion()
        snap = hub.snapshot()
        assert snap["metrics"]["counters"][GET_VERSION] == 4
        assert snap["spans"]["recorded"] == 3  # no span on the raw path
        sampled = GET_VERSION.replace(
            "ffi_calls_total", "ffi_sampled_out_total"
        )
        assert snap["metrics"]["counters"][sampled] == 1

    def test_closure_hooks_skip_duration_between_samples(self):
        hub, env = _observed_env(sample_period=4)
        for _ in range(8):
            env.GetVersion()
        # Period 4: calls 1 and 5 are timed, the rest only counted.
        snap = hub.snapshot()
        assert snap["metrics"]["counters"][GET_VERSION] == 8
        assert hub.spans.recorded == 2
        crossing = GET_VERSION.replace("ffi_calls_total", "ffi_crossing_ns")
        assert snap["metrics"]["histograms"][crossing]["count"] == 2


def _series(metric, function, substrate="jni", native=False):
    """One site series' snapshot name."""
    return (
        '{}{{direction="{}",function="{}",substrate="{}",'
        'subsystem="pipeline"}}'
    ).format(
        metric,
        "managed_to_native" if native else "native_to_managed",
        function,
        substrate,
    )


def _site_reads(metrics, function, substrate="jni", native=False):
    """``(calls, timed crossings, sampled-out)`` of one site."""
    calls, crossing, sampled = (
        _series(metric, function, substrate, native)
        for metric in (
            "ffi_calls_total", "ffi_crossing_ns", "ffi_sampled_out_total"
        )
    )
    return (
        metrics["counters"][calls],
        metrics["histograms"][crossing]["count"],
        metrics["counters"][sampled],
    )


def _table_reads(hub, table, substrate="jni"):
    """function -> :func:`_site_reads` for every site of a table."""
    metrics = hub.snapshot()["metrics"]
    return {name: _site_reads(metrics, name, substrate) for name in table}


class TestSiteBlock:
    """Each table site counts into its own series of the attach's block."""

    def test_jni_sites_count_into_their_own_series(self):
        from repro.jni.functions import FUNCTIONS

        hub, env = _observed_env(sample_period=1)
        cls = [env.FindClass("java/lang/Object") for _ in range(2)][-1]
        text = [env.NewStringUTF("site") for _ in range(3)][-1]
        drives = {
            "GetVersion": (1, env.GetVersion),  # site 0
            "GetSuperclass": (4, lambda: env.GetSuperclass(cls)),
            "GetStringUTFLength": (5, lambda: env.GetStringUTFLength(text)),
            "ExceptionCheck": (6, env.ExceptionCheck),
            "GetObjectRefType": (7, lambda: env.GetObjectRefType(text)),
        }
        assert list(FUNCTIONS)[-1] == "GetObjectRefType"
        for count, call in drives.values():
            for _ in range(count):
                call()
        expected = {name: count for name, (count, _) in drives.items()}
        expected.update(FindClass=2, NewStringUTF=3)
        assert _table_reads(hub, FUNCTIONS) == {
            name: (expected.get(name, 0), expected.get(name, 0), 0)
            for name in FUNCTIONS
        }

    def test_pyc_sites_and_the_extension_count_apart(self):
        from repro.pyc import PyCChecker, PythonInterpreter
        from repro.pyc.spec import PY_FUNCTIONS

        hub = ObsHub(clock=FakeClock(), sample_period=1)
        interp = PythonInterpreter(agents=[PyCChecker(telemetry=hub)])

        def probe(api, self_obj, args):
            for _ in range(2):
                api.PyErr_Occurred()
            for _ in range(3):
                api.PyErr_Clear()
            number = api.PyLong_FromLong(7)
            for _ in range(4):
                api.PyLong_AsLong(number)
            return number

        interp.register_extension("probe", probe)
        interp.call_extension("probe")
        expected = {
            "PyErr_Occurred": 2, "PyErr_Clear": 3,
            "PyLong_FromLong": 1, "PyLong_AsLong": 4,
        }
        assert _table_reads(hub, PY_FUNCTIONS, "pyc") == {
            name: (expected.get(name, 0), expected.get(name, 0), 0)
            for name in PY_FUNCTIONS
        }
        # The extension is a native crossing: its own cells, bound when
        # the extension was.
        metrics = hub.snapshot()["metrics"]
        assert _site_reads(metrics, "probe", "pyc", native=True) == (1, 1, 0)

    def test_sampled_out_rises_only_at_the_governed_site(self):
        from repro.jni.functions import FUNCTIONS
        from repro.resilience import GovernorPolicy, OverheadGovernor

        # No rebalance: the window is far larger than this workload.
        governor = OverheadGovernor(GovernorPolicy(window=10**6))
        hub, env = _observed_env(sample_period=1, governor=governor)
        text = env.NewStringUTF("site")
        governor.fused_binding("GetStringLength").period = 2
        for _ in range(4):
            env.GetStringLength(text)
        env.ExceptionCheck()
        reads = _table_reads(hub, FUNCTIONS)
        # Slots 1 and 3 are sampled out: counted, never timed.
        assert reads.pop("GetStringLength") == (4, 2, 2)
        assert reads.pop("NewStringUTF") == (1, 1, 0)
        assert reads.pop("ExceptionCheck") == (1, 1, 0)
        assert set(reads.values()) == {(0, 0, 0)}

    def test_reset_zeroes_every_series_in_place(self):
        from repro.jni.functions import FUNCTIONS

        hub, env = _observed_env(sample_period=1)
        for _ in range(3):
            env.GetVersion()
        env.ExceptionCheck()
        hub.reset()
        assert set(_table_reads(hub, FUNCTIONS).values()) == {(0, 0, 0)}
        env.GetVersion()
        reads = _table_reads(hub, FUNCTIONS)
        assert reads.pop("GetVersion") == (1, 1, 0)
        assert set(reads.values()) == {(0, 0, 0)}


class TestExport:
    def _snapshot(self):
        hub = ObsHub(clock=FakeClock(), sample_period=1)
        _crossings(hub, "NewObject", 4)
        hub.on_violation(_StubViolation())
        return hub.snapshot()

    def test_prometheus_text_shape(self):
        text = to_prometheus(self._snapshot())
        assert "# TYPE ffi_calls_total counter" in text
        assert "# TYPE ffi_crossing_ns histogram" in text
        assert 'le="+Inf"' in text
        # Cumulative bucket counts end at the series count.
        count_line = next(
            line for line in text.splitlines()
            if line.startswith("ffi_crossing_ns_count")
        )
        assert count_line.endswith(" 4")

    def test_canonical_json_is_stable(self):
        a, b = self._snapshot(), self._snapshot()
        assert canonical_json(a) == canonical_json(b)

    def test_diff_reports_deltas_and_new_clusters(self):
        before = self._snapshot()
        hub = ObsHub(clock=FakeClock(), sample_period=1)
        _crossings(hub, "NewObject", 6)
        hub.on_violation(_StubViolation())
        hub.on_violation(_StubViolation())  # count 2 > before's 1: grown
        hub.on_violation(_StubViolation(machine="global_ref"))
        after = hub.snapshot()
        diff = diff_snapshots(before, after)
        flat = (
            'ffi_calls_total{direction="native_to_managed",'
            'function="NewObject",substrate="jni",subsystem="pipeline"}'
        )
        assert diff["counters"][flat] == 2
        assert diff["spans"]["recorded_delta"] == 2
        assert len(diff["triage"]["new_clusters"]) == 1
        assert len(diff["triage"]["grown_clusters"]) == 1

    def test_top_sites_ranking(self):
        hub = ObsHub(clock=FakeClock(), sample_period=1)
        for name, calls in (("Hot", 5), ("Cold", 2)):
            _crossings(hub, name, calls)
        snap = hub.snapshot()
        by_calls = top_sites(snap, by="calls")
        assert [row["function"] for row in by_calls] == ["Hot", "Cold"]
        assert by_calls[0]["calls"] == 5
        with pytest.raises(ValueError):
            top_sites(snap, by="bogus")


def _without_cache_gauges(snapshot):
    """Drop the ``wrapper_cache_*`` gauges: the cache is process-global
    by design, so its hit counters grow across runs in one process."""
    gauges = snapshot["metrics"]["gauges"]
    for flat in [k for k in gauges if k.startswith("wrapper_cache_")]:
        del gauges[flat]
    return snapshot


#: SHA-256 of the canonical JSON of ``observed_run(seed,
#: substrate=..., repeats=4, clock=FakeClock())``: its snapshot without
#: the cache gauges, and its governor report.  Pinned across commits,
#: so a change to what an attach creates (every site's series, the
#: machine counts spans carry) or to a governor decision shows.
PINNED_OBSERVED = {
    ("jni", 7): (
        "5c079456fbbf98ab9ffc41f97d33eaef31aad5708fe437ba2174ed19bc7f80a4",
        "35ec51c752b0fbafdc6f133014085c9a316b401cfbc4fc272651cf9756adf088",
    ),
    ("jni", 2026): (
        "27d4a2cfbc85eb69064919dd527b78bf105335e28c64a0201d6c1e4835f5f333",
        "015e6a424cf6a4645439139d0498f27c4605564ff05182bf3ed1b0f4ebf9dbdf",
    ),
    ("pyc", 7): (
        "ad0e16e5aac823a4f8f78799ef0e99e1a65ed4ced2b04fe8276f2021b7bdf449",
        "75068cc938140741d949e44e37e7b5f2012ca03a8113a79d0957f75f56d45f4e",
    ),
    ("pyc", 2026): (
        "03107aba294377bcd731d2b3fd6ad2c4d4a7c0d66bf4a6588d9f84c99594c165",
        "ed379940dacc29fe530761893cbfb3c72c589366b8dcdc4160d7da4bce61b89c",
    ),
}


class TestObservedEndToEnd:
    def test_same_seed_fake_clock_snapshots_identical(self):
        from repro.obs import observed_run

        texts = []
        for _ in range(2):
            report = observed_run(
                7, substrate="pyc", repeats=2, clock=FakeClock()
            )
            snap = _without_cache_gauges(report["snapshot"])
            texts.append(canonical_json(snap))
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("substrate,seed", sorted(PINNED_OBSERVED))
    def test_snapshot_and_governor_report_pinned(self, substrate, seed):
        import hashlib

        from repro.obs import observed_run

        report = observed_run(
            seed, substrate=substrate, repeats=4, clock=FakeClock()
        )
        digests = tuple(
            hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()
            for doc in (
                _without_cache_gauges(report["snapshot"]), report["governor"]
            )
        )
        assert digests == PINNED_OBSERVED[(substrate, seed)]

    def test_violating_crossing_attributes_span(self):
        from repro.jinn.agent import JinnAgent
        from repro.jvm import HOTSPOT, JavaException, JavaVM
        from repro.workloads import blocks

        hub = ObsHub(sample_period=1)
        agent = JinnAgent(telemetry=hub)
        vm = JavaVM(vendor=HOTSPOT, agents=[agent])
        vm.define_class("T")
        vm.add_method("T", "bug", "()V", is_static=True, is_native=True)
        vm.register_native("T", "bug", "()V", blocks.delete_local_ref_twice)
        try:
            vm.call_static("T", "bug", "()V")
        except JavaException:
            pass
        vm.shutdown()
        (cluster,) = hub.triage.clusters.values()
        attributed = [
            s for s in hub.spans.spans() if cluster.id in s.violations
        ]
        assert attributed, "the violating crossing should carry its cluster"


class TestAttach:
    """Attaching the tap and the governor: every series, constant work."""

    def test_fresh_jni_attach_creates_every_site_series(self):
        from repro.jinn.agent import JinnAgent
        from repro.jvm import JavaVM

        hub = ObsHub()
        vm = JavaVM(agents=[JinnAgent(telemetry=hub)])
        metrics = hub.snapshot()["metrics"]
        vm.shutdown()
        # Calls and sampled-out counters plus a crossing histogram for
        # each of the 229 table sites, crossed or not.
        assert len(metrics["counters"]) == 458
        assert not any(metrics["counters"].values())
        assert len(metrics["histograms"]) == 229

    def test_fresh_pyc_attach_creates_every_site_series(self):
        from repro.pyc import PyCChecker, PythonInterpreter

        hub = ObsHub()
        PythonInterpreter(agents=[PyCChecker(telemetry=hub)])
        metrics = hub.snapshot()["metrics"]
        # The same three series for each of the 46 API sites.
        assert len(metrics["counters"]) == 92
        assert not any(metrics["counters"].values())
        assert len(metrics["histograms"]) == 46
        assert not any(h["count"] for h in metrics["histograms"].values())

    def test_second_observed_attach_creates_no_keyed_cells(
        self, monkeypatch
    ):
        from repro.jinn.agent import JinnAgent
        from repro.jvm import JavaVM
        from repro.obs.metrics import MetricsRegistry

        def attach():
            return JavaVM(agents=[JinnAgent(telemetry=ObsHub())])

        attach().shutdown()  # the process's first observed attach
        keys = []
        cell = MetricsRegistry.cell
        monkeypatch.setattr(
            MetricsRegistry, "cell",
            lambda registry, key: keys.append(key) or cell(registry, key),
        )
        vm = attach()
        # The table sites' series come as one block, not a cell apiece.
        assert keys == []
        vm.shutdown()

    @pytest.mark.parametrize("govern", [False, True])
    def test_telemetry_adds_few_closure_cells(self, govern):
        from repro.core.cache import WRAPPER_CACHE
        from repro.jinn.machines import build_registry

        registry = build_registry()

        def cellvars(telemetry):
            build = WRAPPER_CACHE.plans_for(
                registry, govern=govern, telemetry=telemetry
            )
            return len(build.__code__.co_cellvars)

        # The shared hooks and the block's lists, bound once per plan;
        # no closure cell per site.
        assert cellvars(True) - cellvars(False) <= 20

    def test_second_observed_attach_sorts_no_labels_and_hashes_once(
        self, monkeypatch
    ):
        import hashlib
        import types

        import repro.fsm.registry
        import repro.obs.metrics
        from repro.jinn.agent import JinnAgent
        from repro.jvm import JavaVM
        from repro.resilience.governor import OverheadGovernor

        def attach():
            return JavaVM(agents=[JinnAgent(
                telemetry=ObsHub(), governor=OverheadGovernor()
            )])

        attach().shutdown()  # the process's first observed attach
        label_sorts = []
        label_key = repro.obs.metrics.label_key
        monkeypatch.setattr(
            repro.obs.metrics, "label_key",
            lambda labels: label_sorts.append(labels) or label_key(labels),
        )
        hashes = []
        monkeypatch.setattr(
            repro.fsm.registry, "hashlib",
            types.SimpleNamespace(
                sha256=lambda: hashes.append(1) or hashlib.sha256()
            ),
        )
        vm = attach()
        assert label_sorts == []
        assert len(hashes) <= 1
        vm.shutdown()
