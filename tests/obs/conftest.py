"""Observability test fixtures: keep the global registry/spans clean."""

from __future__ import annotations

import pytest

from repro.obs import get_registry, get_span_recorder


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Reset the process-wide observability state around every test.

    The registry and span recorder are deliberately global (module-level
    metric handles depend on it), so tests must not leak enablement,
    values or an open JSONL sink into each other — or into the rest of
    the suite, which asserts bit-identical estimator output with
    observability off.
    """
    registry = get_registry()
    spans = get_span_recorder()
    registry.disable()
    registry.reset()
    spans.close()
    spans.disable()
    spans.reset()
    yield registry
    registry.disable()
    registry.reset()
    spans.close()
    spans.disable()
    spans.reset()
