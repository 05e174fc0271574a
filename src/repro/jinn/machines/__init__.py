"""The eleven JNI state machine specifications (paper Figures 6-8).

``build_registry()`` returns them in checking order: JVM-state
constraints first (env, exceptions, critical sections), then type
constraints, then resource constraints — the order the paper's Section 4
example lists the checks in.
"""

from repro.fsm.registry import SpecRegistry
from repro.jinn.machines.access_control import AccessControlSpec
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

#: Specification classes in checking order.
SPEC_CLASSES = (
    JNIEnvStateSpec,
    ExceptionStateSpec,
    CriticalSectionSpec,
    FixedTypingSpec,
    EntityTypingSpec,
    AccessControlSpec,
    NullnessSpec,
    PinnedResourceSpec,
    MonitorSpec,
    GlobalRefSpec,
    LocalRefSpec,
)


#: The eleven specs, built and validated once per process, at import.
_REGISTRY = SpecRegistry([cls() for cls in SPEC_CLASSES])


def build_registry() -> SpecRegistry:
    """A new registry of all eleven machines, validated and fingerprinted
    once per process; every registry it returns shares the same
    immutable spec instances (:meth:`SpecRegistry.copy`)."""
    return _REGISTRY.copy()


__all__ = [
    "AccessControlSpec",
    "CriticalSectionSpec",
    "EntityTypingSpec",
    "ExceptionStateSpec",
    "FixedTypingSpec",
    "GlobalRefSpec",
    "JNIEnvStateSpec",
    "LocalRefSpec",
    "MonitorSpec",
    "NullnessSpec",
    "PinnedResourceSpec",
    "SPEC_CLASSES",
    "build_registry",
]
