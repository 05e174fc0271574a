"""End-to-end application: a Java gallery with a native image codec.

A larger multilingual program in the style the paper's introduction
motivates: Java owns the gallery model and drives a native "codec"
library that decodes image bytes (primitive arrays), interns titles
(strings), caches class/method lookups in C globals the *correct* way
(global references), and calls back into Java listeners.  The correct
variant must be silent under every checker; the buggy variant (one
missing release + one escaped local reference) must be caught by Jinn
and diagnosed with the right machines.
"""

import pytest

from repro.jinn import JinnAgent
from repro.jvm import HOTSPOT, J9, JavaException, JavaVM
from repro.workloads.outcomes import run_scenario


def build_gallery(vm: JavaVM, *, buggy: bool) -> None:
    vm.define_class("app/Gallery")
    vm.define_class("app/Image")
    vm.add_field("app/Image", "title", "Ljava/lang/String;")
    vm.add_field("app/Image", "pixels", "[I")
    vm.add_field("app/Gallery", "decoded", "I", is_static=True)

    def java_on_decoded(vmach, thread, cls, image):
        field = vmach.require_class("app/Gallery").find_field("decoded", "I")
        field.static_value += 1
        return None

    vm.add_method(
        "app/Gallery",
        "onDecoded",
        "(Lapp/Image;)V",
        is_static=True,
        body=java_on_decoded,
    )
    vm.add_method(
        "app/Gallery", "decodeAll", "(I)V", is_static=True, is_native=True
    )

    # The C library caches lookups across invocations, the legal way:
    # through global references and entity IDs (paper Section 3).
    codec_cache = {}

    def native_decode_all(env, clazz, count):
        if "gallery_cls" not in codec_cache:
            gallery = env.FindClass("app/Gallery")
            codec_cache["gallery_cls"] = env.NewGlobalRef(gallery)
            codec_cache["on_decoded"] = env.GetStaticMethodID(
                gallery, "onDecoded", "(Lapp/Image;)V"
            )
            image_cls = env.FindClass("app/Image")
            codec_cache["image_cls"] = env.NewGlobalRef(image_cls)
            codec_cache["title_fid"] = env.GetFieldID(
                image_cls, "title", "Ljava/lang/String;"
            )
            codec_cache["pixels_fid"] = env.GetFieldID(image_cls, "pixels", "[I")
        for i in range(count):
            env.PushLocalFrame(16)
            image = env.AllocObject(codec_cache["image_cls"])
            title = env.NewStringUTF("IMG_{:04d}".format(i))
            env.SetObjectField(image, codec_cache["title_fid"], title)
            pixels = env.NewIntArray(8)
            elems = env.GetIntArrayElements(pixels)
            for px in range(8):
                elems.write(px, (i * 31 + px) & 0xFF)
            env.ReleaseIntArrayElements(pixels, elems, 0)
            env.SetObjectField(image, codec_cache["pixels_fid"], pixels)
            if buggy and i == count - 1:
                # BUG 1: pin the title chars and never release them.
                env.GetStringUTFChars(title)
                # BUG 2: stash a local reference in the C cache.
                codec_cache["last_image"] = image
            env.CallStaticVoidMethodA(
                codec_cache["gallery_cls"],
                codec_cache["on_decoded"],
                [image],
            )
            env.PopLocalFrame(None)

    vm.register_native("app/Gallery", "decodeAll", "(I)V", native_decode_all)
    vm.add_method(
        "app/Gallery", "lastTitle", "()Ljava/lang/String;",
        is_static=True, is_native=True,
    )

    def native_last_title(env, clazz):
        # In the buggy variant this dereferences the escaped local ref.
        image = codec_cache.get("last_image")
        if image is None:
            return env.NewStringUTF("<none>")
        title = env.GetObjectField(image, codec_cache["title_fid"])
        return title

    vm.register_native(
        "app/Gallery", "lastTitle", "()Ljava/lang/String;", native_last_title
    )

    # The codec's JNI_OnUnload analogue: a well-behaved library releases
    # its cached global references before the VM dies.
    vm.add_method(
        "app/Gallery", "unloadCodec", "()V", is_static=True, is_native=True
    )

    def native_unload(env, clazz):
        for key in ("gallery_cls", "image_cls"):
            ref = codec_cache.pop(key, None)
            if ref is not None:
                env.DeleteGlobalRef(ref)
        codec_cache.clear()

    vm.register_native("app/Gallery", "unloadCodec", "()V", native_unload)


def drive(vm: JavaVM, batches: int = 3, per_batch: int = 5, *, unload: bool = True) -> int:
    for _ in range(batches):
        vm.call_static("app/Gallery", "decodeAll", "(I)V", per_batch)
    if unload:
        vm.call_static("app/Gallery", "unloadCodec", "()V")
    return vm.require_class("app/Gallery").find_field("decoded", "I").static_value


class TestCorrectGallery:
    def test_runs_clean_without_checkers(self, vm):
        build_gallery(vm, buggy=False)
        assert drive(vm) == 15
        assert vm.shutdown() == []

    @pytest.mark.parametrize("vendor", [HOTSPOT, J9], ids=lambda v: v.name)
    def test_runs_clean_under_xcheck(self, vendor):
        vm = JavaVM(vendor=vendor, check_jni=True)
        build_gallery(vm, buggy=False)
        assert drive(vm) == 15
        assert vm.agent_host.agents[0].reports == 0
        vm.shutdown()

    @pytest.mark.parametrize("mode", ["generated"])
    def test_runs_clean_under_jinn(self, mode):
        agent = JinnAgent(mode=mode)
        vm = JavaVM(agents=[agent])
        build_gallery(vm, buggy=False)
        assert drive(vm) == 15
        vm.shutdown()
        assert agent.rt.violations == []
        assert agent.termination_violations == []

    def test_replay_of_the_clean_run_is_clean(self, tmp_path):
        """Replay, the interpretive path, walks the machines' handlers
        over the recorded run and must find nothing either."""
        from repro.trace import TraceRecorder
        from repro.trace.replay import replay_path

        path = tmp_path / "gallery.trace"
        recorder = TraceRecorder(str(path), workload="app/gallery")
        agent = JinnAgent(observer=recorder)
        vm = JavaVM(agents=[agent])
        build_gallery(vm, buggy=False)
        assert drive(vm) == 15
        vm.shutdown()
        recorder.close()
        assert agent.rt.violations == []
        replayed = replay_path(str(path))
        assert replayed.event_count > 0
        assert replayed.violations == []

    def test_callbacks_counted_through_the_boundary(self, vm):
        build_gallery(vm, buggy=False)
        before = vm.transition_count
        drive(vm, batches=1, per_batch=2)
        # Each decode iteration crosses the boundary many times; two
        # iterations must account for dozens of transitions.
        assert vm.transition_count - before > 40


class TestBuggyGallery:
    def test_jinn_reports_the_pinned_leak_at_termination(self):
        agent = JinnAgent()
        vm = JavaVM(agents=[agent])
        build_gallery(vm, buggy=True)
        drive(vm, batches=1, per_batch=3, unload=False)
        vm.shutdown()
        assert agent.termination_violations
        assert any(
            v.machine == "pinned_resource" for v in agent.termination_violations
        )

    def test_jinn_catches_the_escaped_local_on_use(self):
        agent = JinnAgent()
        vm = JavaVM(agents=[agent])
        build_gallery(vm, buggy=True)
        drive(vm, batches=1, per_batch=3, unload=False)
        with pytest.raises(JavaException):
            vm.call_static("app/Gallery", "lastTitle", "()Ljava/lang/String;")
        assert any(v.machine == "local_ref" for v in agent.rt.violations)
        vm.shutdown()

    def test_production_crash_for_the_same_use(self):
        def scenario(vm):
            build_gallery(vm, buggy=True)
            drive(vm, batches=1, per_batch=3, unload=False)
            vm.call_static("app/Gallery", "lastTitle", "()Ljava/lang/String;")

        assert run_scenario(scenario, vendor=J9, checker="none").outcome == "crash"
