"""Reusable transpose plans.

Applications that repeatedly transpose same-shaped buffers (the AoS/SoA
conversions of Section 6.1, batched FFT-style pipelines) build a
:class:`TransposePlan` once — usually through the process-wide
:mod:`repro.runtime.plan_cache` — and call :meth:`TransposePlan.execute`
per buffer.  The plan is the pass engine (:mod:`repro.core.engine`) bound
to one decomposition; it lives there and is re-exported here.
"""

from __future__ import annotations

from .engine import TransposePlan

__all__ = ["TransposePlan"]
