"""Differential property test of the code-length routes: for q in
{2, 3, 4, 5, 7}, k <= 4 and d <= 6, `shortest_code_length` (closed forms,
the anticode, shortened Hamming and extended Reed-Solomon constructions,
the binary parity extension, and the scan by probe, tabu witness,
residual-code bound and proof) agrees with the exhaustive upward scan from
the Griesmer bound (`helpers.upward_code_scan`).  Skipped when hypothesis is
not installed; `tests/conftest.py` makes it deterministic in CI."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from ecic import shortest_code_length  # noqa: E402

from helpers import upward_code_scan  # noqa: E402


@settings(deadline=None)
@given(st.sampled_from([2, 3, 4, 5, 7]), st.integers(0, 4), st.integers(1, 6))
def test_scan_agrees_with_the_upward_exhaustive_scan(q, k, d):
    assert shortest_code_length(q, k, d) == upward_code_scan(q, k, d)
