"""Completion scan: chunked candidate generation and its size cap."""

import tracemalloc

import numpy as np
import pytest

from qmodes import tomography
from qmodes.tomography import CompletionGrid, DimensionalityError, ProtocolMatrix, analyze, scan_completions


def populations():
    b = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]], dtype=complex)
    return analyze(ProtocolMatrix(b, s=2))


def test_scan_is_independent_of_chunk_size():
    analysis = populations()
    whole = scan_completions(analysis, np.array([0.5, 0.5]))
    chunked = scan_completions(analysis, np.array([0.5, 0.5]), CompletionGrid(chunk=1000))
    assert whole.count > 0
    assert np.array_equal(whole.states, chunked.states)
    assert (whole.purity_min, whole.purity_max) == (chunked.purity_min, chunked.purity_max)


def test_mixed_populations_span_half_to_full_purity():
    scan = scan_completions(populations(), np.array([0.5, 0.5]))
    assert scan.count == 81
    assert scan.purity_min == pytest.approx(0.5, abs=1e-12)
    assert scan.purity_max == pytest.approx(1.0, abs=1e-12)


def test_candidate_cap_refuses_before_allocating():
    # a trace-only protocol leaves 3 undefined factors: 21^6 ~ 86M grid points
    trace_only = analyze(ProtocolMatrix(np.array([[1.0, 0.0, 0.0, 1.0]], dtype=complex), s=2))
    assert trace_only.model_dim - trace_only.rank == 3
    assert 21**6 > tomography.MAX_SCAN_CANDIDATES
    tracemalloc.start()
    try:
        with pytest.raises(DimensionalityError, match="scan cap"):
            scan_completions(trace_only, np.array([1.0]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
