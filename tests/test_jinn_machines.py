"""Unit tests for the eleven state machine specifications and encodings."""

import pytest

from repro.fsm import Direction, FFIViolation
from repro.jinn.machines import SPEC_CLASSES, build_registry
from repro.jinn.machines.critical_section import CriticalSectionSpec
from repro.jinn.machines.entity_typing import EntityTypingSpec
from repro.jinn.machines.exception_state import ExceptionStateSpec
from repro.jinn.machines.fixed_typing import FixedTypingSpec
from repro.jinn.machines.global_ref import GlobalRefSpec
from repro.jinn.machines.jnienv_state import JNIEnvStateSpec
from repro.jinn.machines.local_ref import LocalRefSpec
from repro.jinn.machines.monitor import MonitorSpec
from repro.jinn.machines.nullness import NullnessSpec
from repro.jinn.machines.pinned_resource import PinnedResourceSpec
from repro.jni import functions
from repro.jni.types import JFieldID, JMethodID, JRef, NativeBuffer
from repro.jvm import JavaVM


@pytest.fixture
def plain_vm():
    vm = JavaVM()
    yield vm
    if vm.alive:
        vm.shutdown()


class TestRegistryShape:
    def test_exactly_eleven_machines(self):
        assert len(SPEC_CLASSES) == 11
        assert len(build_registry()) == 11

    def test_three_constraint_classes(self):
        registry = build_registry()
        assert len(registry.by_class("jvm-state")) == 3
        assert len(registry.by_class("type")) == 4
        assert len(registry.by_class("resource")) == 4

    def test_all_specs_validate(self):
        build_registry()  # register() validates each

    def test_every_machine_has_error_state(self):
        for spec in build_registry():
            assert spec.error_states(), spec.name

    def test_describe_renders_for_every_machine(self):
        for spec in build_registry():
            text = spec.describe()
            assert spec.name in text
            assert "Observed entity" in text

    def test_checking_order_state_before_type_before_resource(self):
        names = build_registry().names()
        assert names.index("jnienv_state") < names.index("fixed_typing")
        assert names.index("fixed_typing") < names.index("local_ref")


class TestJNIEnvStateMachine:
    def test_matching_env_passes(self, plain_vm):
        main = plain_vm.main_thread
        enc = JNIEnvStateSpec().make_encoding(plain_vm)
        enc.record_thread(plain_vm.main_thread)
        enc.check(plain_vm.main_thread.env, main, "GetVersion")

    def test_foreign_env_flagged(self, plain_vm):
        main = plain_vm.main_thread
        enc = JNIEnvStateSpec().make_encoding(plain_vm)
        enc.record_thread(plain_vm.main_thread)
        worker = plain_vm.attach_thread("w")
        enc.record_thread(worker)
        with pytest.raises(FFIViolation) as exc_info:
            enc.check(worker.env, main, "GetVersion")
        assert exc_info.value.machine == "jnienv_state"

    def test_unknown_thread_tolerated(self, plain_vm):
        main = plain_vm.main_thread
        enc = JNIEnvStateSpec().make_encoding(plain_vm)
        enc.check(plain_vm.main_thread.env, main, "GetVersion")  # nothing recorded


class TestExceptionStateMachine:
    def test_clean_thread_passes(self, plain_vm):
        main = plain_vm.main_thread
        enc = ExceptionStateSpec().make_encoding(plain_vm)
        enc.check_sensitive(plain_vm.main_thread.env, main, "FindClass")

    def test_pending_flagged_with_figure9_message(self, plain_vm):
        main = plain_vm.main_thread
        enc = ExceptionStateSpec().make_encoding(plain_vm)
        plain_vm.main_thread.pending_exception = plain_vm.new_throwable(
            "java/lang/RuntimeException", "x"
        )
        with pytest.raises(FFIViolation) as exc_info:
            enc.check_sensitive(plain_vm.main_thread.env, main, "GetMethodID")
        assert str(exc_info.value) == "An exception is pending in GetMethodID."

    def test_oblivious_function_count_in_mapping(self):
        spec = ExceptionStateSpec()
        sensitive = [
            m
            for m in functions.FUNCTIONS.values()
            if spec.emit(m, Direction.CALL_NATIVE_TO_MANAGED)
        ]
        assert len(sensitive) == 209


class TestCriticalSectionMachine:
    def test_acquire_release_cycle(self, plain_vm):
        main = plain_vm.main_thread
        enc = CriticalSectionSpec().make_encoding(plain_vm)
        resource = plain_vm.new_object("java/lang/Object")
        handle = JRef("local", resource)
        enc.acquire(None, main, "GetPrimitiveArrayCritical", handle, object())
        assert enc.in_critical(main)
        enc.release(None, main, "ReleasePrimitiveArrayCritical", handle)
        assert not enc.in_critical(main)

    def test_sensitive_call_inside_flagged(self, plain_vm):
        main = plain_vm.main_thread
        enc = CriticalSectionSpec().make_encoding(plain_vm)
        handle = JRef("local", plain_vm.new_object("java/lang/Object"))
        enc.acquire(None, main, "GetStringCritical", handle, object())
        with pytest.raises(FFIViolation):
            enc.check_sensitive(None, main, "CallVoidMethod")

    def test_unmatched_release_flagged(self, plain_vm):
        main = plain_vm.main_thread
        enc = CriticalSectionSpec().make_encoding(plain_vm)
        handle = JRef("local", plain_vm.new_object("java/lang/Object"))
        with pytest.raises(FFIViolation):
            enc.release(None, main, "ReleaseStringCritical", handle)

    def test_nested_acquires_tallied(self, plain_vm):
        main = plain_vm.main_thread
        enc = CriticalSectionSpec().make_encoding(plain_vm)
        handle = JRef("local", plain_vm.new_object("java/lang/Object"))
        enc.acquire(None, main, "GetStringCritical", handle, object())
        enc.acquire(None, main, "GetStringCritical", handle, object())
        enc.release(None, main, "ReleaseStringCritical", handle)
        assert enc.in_critical(main)

    def test_tallies_are_per_thread(self, plain_vm):
        main = plain_vm.main_thread
        enc = CriticalSectionSpec().make_encoding(plain_vm)
        handle = JRef("local", plain_vm.new_object("java/lang/Object"))
        enc.acquire(None, main, "GetStringCritical", handle, object())
        worker = plain_vm.attach_thread("w")
        with plain_vm.run_on_thread(worker):
            enc.check_sensitive(None, worker, "CallVoidMethod")  # other thread: fine


class TestFixedTypingMachine:
    def test_id_passed_as_reference_flagged(self, plain_vm):
        enc = FixedTypingSpec().make_encoding(plain_vm)
        vmclass = plain_vm.require_class("java/lang/Object")
        method = vmclass.add_method(
            __import__("repro.jvm.model", fromlist=["JMethod"]).JMethod(
                vmclass, "m", "()V"
            )
        )
        mid = JMethodID(method)
        with pytest.raises(FFIViolation) as exc_info:
            enc.require_reference(None, "GetObjectClass", (mid,), 0, "obj")
        assert "confusing ids with references" in str(exc_info.value).lower()

    def test_reference_passed_as_id_flagged(self, plain_vm):
        enc = FixedTypingSpec().make_encoding(plain_vm)
        ref = JRef("local", plain_vm.new_object("java/lang/Object"))
        with pytest.raises(FFIViolation):
            enc.require_id(None, "CallVoidMethodA", (ref,), 0, "methodID", "jmethodID")

    def test_wrong_java_type_flagged(self, plain_vm):
        enc = FixedTypingSpec().make_encoding(plain_vm)
        plain_obj = JRef("local", plain_vm.new_object("java/lang/Object"))
        with pytest.raises(FFIViolation) as exc_info:
            enc.require_type(
                None, "GetStaticMethodID", (plain_obj,), 0, "clazz", "java/lang/Class"
            )
        assert "java.lang.Class" in str(exc_info.value)

    def test_conforming_type_passes(self, plain_vm):
        enc = FixedTypingSpec().make_encoding(plain_vm)
        s = JRef("local", plain_vm.new_string("x"))
        enc.require_type(None, "GetStringLength", (s,), 0, "string", "java/lang/String")

    def test_null_and_cleared_tolerated(self, plain_vm):
        enc = FixedTypingSpec().make_encoding(plain_vm)
        enc.require_type(None, "F", (None,), 0, "x", "java/lang/Class")
        cleared = JRef("weak", None)
        enc.require_type(None, "F", (cleared,), 0, "x", "java/lang/Class")

    def test_alternative_types_accepted(self, plain_vm):
        enc = FixedTypingSpec().make_encoding(plain_vm)
        ctor = JRef(
            "local", plain_vm.new_object("java/lang/reflect/Constructor")
        )
        enc.require_type(
            None,
            "FromReflectedMethod",
            (ctor,),
            0,
            "method",
            ("java/lang/reflect/Method", "java/lang/reflect/Constructor"),
        )


class TestEntityTypingMachine:
    def _setup(self, plain_vm):
        plain_vm.define_class("te/C")
        plain_vm.add_method(
            "te/C", "f", "(I)I", is_static=True,
            body=lambda vmach, t, c, x: x,
        )
        plain_vm.add_method(
            "te/C", "g", "()V", body=lambda vmach, t, recv: None
        )
        plain_vm.add_field("te/C", "n", "I")
        return plain_vm.require_class("te/C")

    def test_good_static_call_passes(self, plain_vm):
        cls = self._setup(plain_vm)
        enc = EntityTypingSpec().make_encoding(plain_vm)
        mid = JMethodID(cls.find_method("f", "(I)I"))
        clazz = JRef("local", plain_vm.class_object_of(cls))
        enc.check(None, "CallStaticIntMethodA", (clazz, mid, [4]))

    def test_argument_type_mismatch_flagged(self, plain_vm):
        cls = self._setup(plain_vm)
        enc = EntityTypingSpec().make_encoding(plain_vm)
        mid = JMethodID(cls.find_method("f", "(I)I"))
        clazz = JRef("local", plain_vm.class_object_of(cls))
        bad = JRef("local", plain_vm.new_string("no"))
        with pytest.raises(FFIViolation):
            enc.check(None, "CallStaticIntMethodA", (clazz, mid, [bad]))

    def test_argument_count_mismatch_flagged(self, plain_vm):
        cls = self._setup(plain_vm)
        enc = EntityTypingSpec().make_encoding(plain_vm)
        mid = JMethodID(cls.find_method("f", "(I)I"))
        clazz = JRef("local", plain_vm.class_object_of(cls))
        with pytest.raises(FFIViolation):
            enc.check(None, "CallStaticIntMethodA", (clazz, mid, []))

    def test_result_kind_mismatch_flagged(self, plain_vm):
        cls = self._setup(plain_vm)
        enc = EntityTypingSpec().make_encoding(plain_vm)
        mid = JMethodID(cls.find_method("f", "(I)I"))
        clazz = JRef("local", plain_vm.class_object_of(cls))
        with pytest.raises(FFIViolation):
            enc.check(None, "CallStaticVoidMethodA", (clazz, mid, [4]))

    def test_static_call_of_instance_method_flagged(self, plain_vm):
        cls = self._setup(plain_vm)
        enc = EntityTypingSpec().make_encoding(plain_vm)
        mid = JMethodID(cls.find_method("g", "()V"))
        clazz = JRef("local", plain_vm.class_object_of(cls))
        with pytest.raises(FFIViolation):
            enc.check(None, "CallStaticVoidMethodA", (clazz, mid, []))

    def test_eclipse_pattern_subclass_not_declaring_flagged(self, plain_vm):
        cls = self._setup(plain_vm)
        plain_vm.define_class("te/Sub", superclass="te/C")
        enc = EntityTypingSpec().make_encoding(plain_vm)
        mid = JMethodID(cls.find_method("f", "(I)I"))
        sub = JRef(
            "local",
            plain_vm.class_object_of(plain_vm.require_class("te/Sub")),
        )
        with pytest.raises(FFIViolation) as exc_info:
            enc.check(None, "CallStaticIntMethodA", (sub, mid, [1]))
        assert "declare" in str(exc_info.value)

    def test_receiver_not_instance_flagged(self, plain_vm):
        cls = self._setup(plain_vm)
        enc = EntityTypingSpec().make_encoding(plain_vm)
        mid = JMethodID(cls.find_method("g", "()V"))
        stranger = JRef("local", plain_vm.new_object("java/lang/Object"))
        with pytest.raises(FFIViolation):
            enc.check(None, "CallVoidMethodA", (stranger, mid, []))

    def test_field_kind_mismatch_flagged(self, plain_vm):
        cls = self._setup(plain_vm)
        enc = EntityTypingSpec().make_encoding(plain_vm)
        fid = JFieldID(cls.find_field("n", "I"))
        obj = JRef("local", plain_vm.new_object("te/C"))
        with pytest.raises(FFIViolation):
            enc.check(None, "GetLongField", (obj, fid))

    def test_field_value_type_checked_on_write(self, plain_vm):
        cls = self._setup(plain_vm)
        enc = EntityTypingSpec().make_encoding(plain_vm)
        fid = JFieldID(cls.find_field("n", "I"))
        obj = JRef("local", plain_vm.new_object("te/C"))
        with pytest.raises(FFIViolation):
            enc.check(None, "SetIntField", (obj, fid, "not an int"))
        enc.check(None, "SetIntField", (obj, fid, 3))

    def test_non_id_handles_left_to_fixed_typing(self, plain_vm):
        enc = EntityTypingSpec().make_encoding(plain_vm)
        clazz = JRef(
            "local",
            plain_vm.class_object_of(plain_vm.require_class("java/lang/Object")),
        )
        enc.check(None, "CallStaticVoidMethodA", (clazz, "bogus", []))


class TestNullnessAndAccessControl:
    def test_null_flagged_with_param_name(self, plain_vm):
        enc = NullnessSpec().make_encoding(plain_vm)
        with pytest.raises(FFIViolation) as exc_info:
            enc.require(None, "CallStaticVoidMethodA", (None,), 0, "clazz")
        assert "'clazz'" in str(exc_info.value)

    def test_nonnull_passes(self, plain_vm):
        enc = NullnessSpec().make_encoding(plain_vm)
        enc.require(None, "F", (object(),), 0, "x")

    def test_final_write_flagged(self, plain_vm):
        plain_vm.define_class("tn/C")
        field = plain_vm.add_field(
            "tn/C", "K", "I", is_static=True, is_final=True
        )
        enc = __import__(
            "repro.jinn.machines.access_control",
            fromlist=["AccessControlSpec"],
        ).AccessControlSpec().make_encoding(plain_vm)
        with pytest.raises(FFIViolation):
            enc.check(None, "SetStaticIntField", JFieldID(field))

    def test_nonfinal_write_passes(self, plain_vm):
        plain_vm.define_class("tn/C")
        field = plain_vm.add_field("tn/C", "k", "I", is_static=True)
        from repro.jinn.machines.access_control import AccessControlSpec

        enc = AccessControlSpec().make_encoding(plain_vm)
        enc.check(None, "SetStaticIntField", JFieldID(field))


class TestResourceMachines:
    def test_pinned_double_free_flagged(self, plain_vm):
        enc = PinnedResourceSpec().make_encoding(plain_vm)
        buf = NativeBuffer(plain_vm.new_string("x"), list("x"))
        enc.acquire(None, "GetStringUTFChars", buf)
        enc.release(None, "ReleaseStringUTFChars", buf)
        with pytest.raises(FFIViolation):
            enc.release(None, "ReleaseStringUTFChars", buf)

    def test_pinned_commit_keeps_acquired(self, plain_vm):
        enc = PinnedResourceSpec().make_encoding(plain_vm)
        buf = NativeBuffer(plain_vm.new_array("I", 1), [0])
        enc.acquire(None, "GetIntArrayElements", buf)
        enc.release(None, "ReleaseIntArrayElements", buf, mode=1)  # COMMIT
        assert enc.live_count() == 1
        enc.release(None, "ReleaseIntArrayElements", buf, mode=0)
        assert enc.live_count() == 0

    def test_pinned_leak_reported_at_termination(self, plain_vm):
        enc = PinnedResourceSpec().make_encoding(plain_vm)
        buf = NativeBuffer(plain_vm.new_string("x"), list("x"))
        enc.acquire(None, "GetStringUTFChars", buf)
        leaks = enc.at_termination()
        assert len(leaks) == 1
        assert "never released" in leaks[0]

    def test_monitor_leak_reported(self, plain_vm):
        enc = MonitorSpec().make_encoding(plain_vm)
        obj = plain_vm.new_object("java/lang/Object")
        handle = JRef("local", obj)
        enc.entered(None, "MonitorEnter", handle, 0)
        assert len(enc.at_termination()) == 1
        enc.exited(None, "MonitorExit", handle, 0)
        assert enc.at_termination() == []

    def test_monitor_reentrancy_counted(self, plain_vm):
        enc = MonitorSpec().make_encoding(plain_vm)
        handle = JRef("local", plain_vm.new_object("java/lang/Object"))
        enc.entered(None, "MonitorEnter", handle, 0)
        enc.entered(None, "MonitorEnter", handle, 0)
        enc.exited(None, "MonitorExit", handle, 0)
        assert len(enc.at_termination()) == 1

    def test_failed_monitor_enter_ignored(self, plain_vm):
        enc = MonitorSpec().make_encoding(plain_vm)
        handle = JRef("local", plain_vm.new_object("java/lang/Object"))
        enc.entered(None, "MonitorEnter", handle, -1)
        assert enc.at_termination() == []

    def test_global_use_after_release_flagged(self, plain_vm):
        enc = GlobalRefSpec().make_encoding(plain_vm)
        g = JRef("global", plain_vm.new_object("java/lang/Object"))
        enc.acquire(None, "NewGlobalRef", g)
        enc.release(None, "DeleteGlobalRef", g)
        with pytest.raises(FFIViolation) as exc_info:
            enc.check_use_single(None, "CallVoidMethodA", g)
        assert "dangling" in str(exc_info.value)

    def test_global_double_free_flagged(self, plain_vm):
        enc = GlobalRefSpec().make_encoding(plain_vm)
        g = JRef("global", plain_vm.new_object("java/lang/Object"))
        enc.acquire(None, "NewGlobalRef", g)
        enc.release(None, "DeleteGlobalRef", g)
        with pytest.raises(FFIViolation):
            enc.release(None, "DeleteGlobalRef", g)

    def test_global_leak_reported(self, plain_vm):
        enc = GlobalRefSpec().make_encoding(plain_vm)
        enc.acquire(
            None, "NewGlobalRef", JRef("global", plain_vm.new_object("java/lang/Object"))
        )
        assert len(enc.at_termination()) == 1

    def test_local_refs_ignored_by_global_machine(self, plain_vm):
        enc = GlobalRefSpec().make_encoding(plain_vm)
        local = JRef("local", plain_vm.new_object("java/lang/Object"))
        enc.check_use_single(None, "F", local)  # no violation


class TestLocalRefMachine:
    def _enc(self, plain_vm):
        return LocalRefSpec().make_encoding(plain_vm)

    def _local(self, plain_vm):
        return JRef(
            "local",
            plain_vm.new_object("java/lang/Object"),
            owner_thread=plain_vm.main_thread,
        )

    def test_enter_acquires_reference_args(self, plain_vm):
        main = plain_vm.main_thread
        enc = self._enc(plain_vm)
        ref = self._local(plain_vm)
        enc.enter_native(None, main, "Java_X_f", (ref, 42))
        enc.check_use_single(None, main, "GetObjectClass", ref)

    def test_exit_kills_frame(self, plain_vm):
        main = plain_vm.main_thread
        enc = self._enc(plain_vm)
        ref = self._local(plain_vm)
        enc.enter_native(None, main, "Java_X_f", (ref,))
        enc.exit_native(None, main, "Java_X_f", None)
        with pytest.raises(FFIViolation) as exc_info:
            enc.check_use_single(None, main, "CallStaticVoidMethodA", ref)
        assert "Error: dangling" in str(exc_info.value)

    def test_overflow_on_seventeenth(self, plain_vm):
        main = plain_vm.main_thread
        enc = self._enc(plain_vm)
        enc.enter_native(None, main, "Java_X_f", ())
        for i in range(16):
            enc.acquire_return(None, main, "NewStringUTF", self._local(plain_vm))
        with pytest.raises(FFIViolation) as exc_info:
            enc.acquire_return(None, main, "NewStringUTF", self._local(plain_vm))
        assert "overflow" in str(exc_info.value)

    def test_push_frame_resets_capacity_window(self, plain_vm):
        main = plain_vm.main_thread
        enc = self._enc(plain_vm)
        enc.enter_native(None, main, "Java_X_f", ())
        enc.push_frame(None, main, "PushLocalFrame", 32, 0)
        for i in range(20):
            enc.acquire_return(None, main, "NewStringUTF", self._local(plain_vm))
        enc.pop_frame_check(None, main, "PopLocalFrame")

    def test_pop_with_nothing_flagged(self, plain_vm):
        main = plain_vm.main_thread
        enc = self._enc(plain_vm)
        enc.enter_native(None, main, "Java_X_f", ())
        with pytest.raises(FFIViolation) as exc_info:
            enc.pop_frame_check(None, main, "PopLocalFrame")
        assert "double free" in str(exc_info.value)

    def test_leaked_frame_flagged_at_exit(self, plain_vm):
        main = plain_vm.main_thread
        enc = self._enc(plain_vm)
        enc.enter_native(None, main, "Java_X_f", ())
        enc.push_frame(None, main, "PushLocalFrame", 8, 0)
        with pytest.raises(FFIViolation) as exc_info:
            enc.exit_native(None, main, "Java_X_f", None)
        assert "never popped" in str(exc_info.value)

    def test_double_delete_flagged(self, plain_vm):
        main = plain_vm.main_thread
        enc = self._enc(plain_vm)
        ref = self._local(plain_vm)
        enc.enter_native(None, main, "Java_X_f", (ref,))
        enc.release_one(None, main, "DeleteLocalRef", ref)
        with pytest.raises(FFIViolation) as exc_info:
            enc.release_one(None, main, "DeleteLocalRef", ref)
        assert "double free" in str(exc_info.value)

    def test_delete_of_unknown_ref_flagged_as_dangling(self, plain_vm):
        main = plain_vm.main_thread
        enc = self._enc(plain_vm)
        enc.enter_native(None, main, "Java_X_f", ())
        with pytest.raises(FFIViolation):
            enc.release_one(None, main, "DeleteLocalRef", self._local(plain_vm))

    def test_cross_thread_use_flagged_specifically(self, plain_vm):
        main = plain_vm.main_thread
        enc = self._enc(plain_vm)
        ref = self._local(plain_vm)
        enc.enter_native(None, main, "Java_X_f", (ref,))
        worker = plain_vm.attach_thread("w")
        with plain_vm.run_on_thread(worker):
            enc.enter_native(None, worker, "Java_Y_g", ())
            with pytest.raises(FFIViolation) as exc_info:
                enc.check_use_single(None, worker, "GetObjectClass", ref)
        assert "another thread" in str(exc_info.value)

    def test_ensure_capacity_raises_limit(self, plain_vm):
        main = plain_vm.main_thread
        enc = self._enc(plain_vm)
        enc.enter_native(None, main, "Java_X_f", ())
        enc.ensure_capacity(None, main, "EnsureLocalCapacity", 64, 0)
        for i in range(30):
            enc.acquire_return(None, main, "NewStringUTF", self._local(plain_vm))

    def test_history_series(self, plain_vm):
        main = plain_vm.main_thread
        enc = self._enc(plain_vm)
        enc.record_history = True
        enc.enter_native(None, main, "Java_X_f", ())
        enc.acquire_return(None, main, "NewStringUTF", self._local(plain_vm))
        enc.acquire_return(None, main, "NewStringUTF", self._local(plain_vm))
        enc.exit_native(None, main, "Java_X_f", None)
        assert enc.history == [1, 2, 0]

    def test_returning_live_local_is_legal(self, plain_vm):
        main = plain_vm.main_thread
        enc = self._enc(plain_vm)
        ref = self._local(plain_vm)
        enc.enter_native(None, main, "Java_X_f", (ref,))
        enc.exit_native(None, main, "Java_X_f", ref)  # valid at return time
