"""repro.pipeline — the unified, fused FFI call path.

One compiled plan per (runtime, stage set): :class:`PipelinePlan`
binds the synthesizer's emitted module to the attached stages (trace
recorder, overhead governor, telemetry tap) and hands the agents one
flat entry per ``(function, direction)`` site.
"""

from repro.pipeline.plan import PipelinePlan

__all__ = ["PipelinePlan"]
